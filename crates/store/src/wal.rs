//! The write-ahead log.
//!
//! Every committed transaction is appended to the log as one framed,
//! CRC-protected record before it is applied to the in-memory tables. After
//! a crash, replaying the log reconstructs all durable transactions; a torn
//! or corrupt tail (the paper's "window of vulnerability", §4.1.3) is
//! detected by CRC/framing checks and discarded, leaving the store in the
//! consistent state of the last intact commit.
//!
//! All file access goes through the [`crate::vfs`] seam so fault-injection
//! tests can fail, tear, or drop any individual write or fsync. Two
//! durability details are deliberate:
//!
//! * creating a *new* log file fsyncs the parent directory, so the file
//!   name itself survives a crash (a rename-style guarantee the snapshot
//!   path already had);
//! * after a failed write or fsync the log is **poisoned** — every later
//!   append/sync/reset fails with [`StoreError::Poisoned`] until the log
//!   is reopened. A failed fsync leaves the kernel page cache in an
//!   unknowable state, so pretending a retry succeeded would silently
//!   break the commit contract.
//!
//! Record framing (little-endian):
//!
//! ```text
//! magic: u32 ("FWAL")  seq: u64  len: u32  crc: u32(payload)  payload
//! payload := op_count: u32, then per op:
//!   kind: u8 (0 = put, 1 = delete)
//!   table: u16-prefixed name
//!   key:   u32-prefixed blob
//!   value: u32-prefixed blob (put only)
//! ```

use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::{Decoder, Encoder};
use crate::crc::crc32;
use crate::error::{Result, StoreError};
use crate::vfs::{StdVfs, Vfs, VfsFile};

const MAGIC: u32 = u32::from_le_bytes(*b"FWAL");
const HEADER_LEN: usize = 4 + 8 + 4 + 4;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert or overwrite `key` in `table`.
    Put {
        /// Target table name.
        table: String,
        /// Record key.
        key: Vec<u8>,
        /// Record value.
        value: Vec<u8>,
    },
    /// Remove `key` from `table` (a no-op if absent).
    Delete {
        /// Target table name.
        table: String,
        /// Record key.
        key: Vec<u8>,
    },
}

/// One committed transaction as recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Monotonically increasing commit sequence number.
    pub seq: u64,
    /// The transaction's operations, in commit order.
    pub ops: Vec<Op>,
}

fn encode_payload(ops: &[Op]) -> Result<Vec<u8>> {
    let mut enc = Encoder::new();
    enc.put_u32(ops.len() as u32);
    for op in ops {
        match op {
            Op::Put { table, key, value } => {
                enc.put_u8(0);
                enc.put_name(table)?;
                enc.put_blob(key)?;
                enc.put_blob(value)?;
            }
            Op::Delete { table, key } => {
                enc.put_u8(1);
                enc.put_name(table)?;
                enc.put_blob(key)?;
            }
        }
    }
    Ok(enc.into_bytes())
}

fn decode_payload(payload: &[u8]) -> Result<Vec<Op>> {
    let mut dec = Decoder::new(payload);
    let count = dec.get_u32()? as usize;
    let mut ops = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let kind = dec.get_u8()?;
        let table = dec.get_name()?;
        let key = dec.get_blob()?;
        match kind {
            0 => {
                let value = dec.get_blob()?;
                ops.push(Op::Put { table, key, value });
            }
            1 => ops.push(Op::Delete { table, key }),
            k => return Err(StoreError::Corrupt(format!("unknown op kind {k}"))),
        }
    }
    if !dec.is_done() {
        return Err(StoreError::Corrupt("trailing bytes in record".into()));
    }
    Ok(ops)
}

/// Result of scanning an existing log file.
#[derive(Debug)]
pub struct Replay {
    /// The committed batches, in log order.
    pub batches: Vec<Batch>,
    /// Byte offset of the end of the last intact record.
    pub good_len: u64,
    /// True if a torn/corrupt tail was found (and will be truncated).
    pub torn_tail: bool,
}

/// Scans a log's bytes, returning all intact batches.
///
/// Stops (without error) at the first framing, CRC, or sequence violation —
/// anything after that point is a torn tail from an interrupted write.
pub fn scan(bytes: &[u8]) -> Replay {
    let mut batches = Vec::new();
    let mut pos = 0usize;
    let mut last_seq = 0u64;
    loop {
        let mut header = Decoder::new(&bytes[pos..]);
        let (Ok(magic), Ok(seq), Ok(len), Ok(crc)) = (
            header.get_u32(),
            header.get_u64(),
            header.get_u32(),
            header.get_u32(),
        ) else {
            break;
        };
        let len = len as usize;
        if magic != MAGIC || header.remaining() < len {
            break;
        }
        let payload = &bytes[pos + HEADER_LEN..pos + HEADER_LEN + len];
        if crc32(payload) != crc {
            break;
        }
        if seq <= last_seq && !batches.is_empty() {
            break;
        }
        let ops = match decode_payload(payload) {
            Ok(ops) => ops,
            Err(_) => break,
        };
        batches.push(Batch { seq, ops });
        last_seq = seq;
        pos += HEADER_LEN + len;
    }
    Replay {
        good_len: pos as u64,
        torn_tail: pos != bytes.len(),
        batches,
    }
}

/// An open, append-only write-ahead log.
pub struct Wal {
    #[allow(dead_code)] // held so callers can re-derive the vfs; used by Database.
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Records appended but not yet handed to the file; [`Wal::sync`]
    /// writes and fsyncs them in one step.
    buffer: Vec<u8>,
    next_seq: u64,
    appended_since_sync: bool,
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("next_seq", &self.next_seq)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Wal {
    /// Opens (or creates) the log at `path`, replaying existing records.
    ///
    /// A torn tail is truncated so new appends start at a clean boundary.
    /// Returns the log handle and the recovered batches.
    pub fn open(path: &Path) -> Result<(Self, Vec<Batch>)> {
        Self::open_with_vfs(Arc::new(StdVfs), path)
    }

    /// [`Wal::open`] over an explicit [`Vfs`] (the fault-injection seam).
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, path: &Path) -> Result<(Self, Vec<Batch>)> {
        let existed = vfs.exists(path);
        let bytes = match vfs.read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let replay = scan(&bytes);
        let mut file = vfs.open_rw(path)?;
        if !existed {
            // A freshly created log file is only durable once its directory
            // entry is fsynced; otherwise a crash can drop the whole file
            // even after its records were synced.
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    vfs.sync_dir(dir)?;
                }
            }
        }
        if replay.torn_tail {
            file.set_len(replay.good_len)?;
        }
        file.seek(SeekFrom::Start(replay.good_len))?;
        let next_seq = replay.batches.last().map_or(1, |b| b.seq + 1);
        Ok((
            Self {
                vfs,
                file,
                path: path.to_path_buf(),
                buffer: Vec::new(),
                next_seq,
                appended_since_sync: false,
                poisoned: false,
            },
            replay.batches,
        ))
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// True if an earlier write/fsync failure poisoned this log.
    #[cfg(test)]
    fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            Err(StoreError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Appends one transaction; returns its sequence number.
    ///
    /// The record is buffered in memory; call [`Wal::sync`] to write and
    /// fsync it.
    pub fn append(&mut self, ops: &[Op]) -> Result<u64> {
        self.check_poisoned()?;
        let payload = encode_payload(ops)?;
        let seq = self.next_seq;
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC.to_le_bytes());
        header[4..12].copy_from_slice(&seq.to_le_bytes());
        header[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[16..20].copy_from_slice(&crc32(&payload).to_le_bytes());
        self.buffer.extend_from_slice(&header);
        self.buffer.extend_from_slice(&payload);
        self.next_seq += 1;
        self.appended_since_sync = true;
        Ok(seq)
    }

    /// Writes buffered records and fsyncs the file.
    ///
    /// Any failure poisons the log: a torn record may now sit at the tail,
    /// and after a failed fsync the durable state is unknowable, so the
    /// only safe continuation is a reopen (which truncates the tear).
    pub fn sync(&mut self) -> Result<()> {
        self.check_poisoned()?;
        if !self.buffer.is_empty() {
            let buffer = std::mem::take(&mut self.buffer);
            if let Err(e) = self.file.write_all(&buffer) {
                self.poisoned = true;
                return Err(e.into());
            }
        }
        if self.appended_since_sync {
            if let Err(e) = self.file.sync_data() {
                self.poisoned = true;
                return Err(e.into());
            }
            self.appended_since_sync = false;
        }
        Ok(())
    }

    /// Truncates the log after a checkpoint, carrying the sequence forward.
    ///
    /// Buffered-but-unsynced records are discarded: the caller checkpoints
    /// only after a successful [`Wal::sync`], so everything in the buffer
    /// is at or past the snapshot it just wrote.
    pub fn reset(&mut self) -> Result<()> {
        self.check_poisoned()?;
        self.buffer.clear();
        if let Err(e) = self.file.set_len(0) {
            self.poisoned = true;
            return Err(e.into());
        }
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(e.into());
        }
        if let Err(e) = self.file.seek(SeekFrom::Start(0)) {
            self.poisoned = true;
            return Err(e.into());
        }
        self.appended_since_sync = false;
        Ok(())
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort flush of buffered records, mirroring the historical
        // BufWriter behavior: unsynced commits *may* survive a clean drop,
        // but nothing is promised. Never touch a poisoned file.
        if !self.poisoned && !self.buffer.is_empty() {
            let _ = self.file.write_all(&self.buffer);
        }
    }
}

#[cfg(test)]
// Tests write fixture files directly; the Vfs seam is for production durability.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ferret-wal-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(table: &str, key: &[u8], value: &[u8]) -> Op {
        Op::Put {
            table: table.into(),
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    fn del(table: &str, key: &[u8]) -> Op {
        Op::Delete {
            table: table.into(),
            key: key.to_vec(),
        }
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, batches) = Wal::open(&path).unwrap();
            assert!(batches.is_empty());
            wal.append(&[put("t", b"k1", b"v1")]).unwrap();
            wal.append(&[put("t", b"k2", b"v2"), del("t", b"k1")])
                .unwrap();
            wal.sync().unwrap();
        }
        let (wal, batches) = Wal::open(&path).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].seq, 1);
        assert_eq!(batches[1].seq, 2);
        assert_eq!(batches[1].ops.len(), 2);
        assert_eq!(wal.next_seq(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&[put("t", b"good", b"1")]).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: write half a record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&MAGIC.to_le_bytes()).unwrap();
            f.write_all(&7u64.to_le_bytes()).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            // Crash before crc/payload.
        }
        let (mut wal, batches) = Wal::open(&path).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].ops, vec![put("t", b"good", b"1")]);
        // The log must be appendable again after truncation.
        wal.append(&[put("t", b"after", b"2")]).unwrap();
        wal.sync().unwrap();
        let (_, batches) = Wal::open(&path).unwrap();
        assert_eq!(batches.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let dir = tmpdir("crc");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&[put("t", b"a", b"1")]).unwrap();
            wal.append(&[put("t", b"b", b"2")]).unwrap();
            wal.sync().unwrap();
        }
        // Flip a payload byte in the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, batches) = Wal::open(&path).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].ops, vec![put("t", b"a", b"1")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_truncates_and_keeps_sequence() {
        let dir = tmpdir("reset");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&[put("t", b"a", b"1")]).unwrap();
        wal.sync().unwrap();
        let seq_before = wal.next_seq();
        wal.reset().unwrap();
        assert_eq!(wal.next_seq(), seq_before);
        wal.append(&[put("t", b"b", b"2")]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, batches) = Wal::open(&path).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].seq, seq_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsynced_appends_may_be_lost_but_log_stays_consistent() {
        let dir = tmpdir("unsynced");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&[put("t", b"a", b"1")]).unwrap();
            wal.sync().unwrap();
            wal.append(&[put("t", b"b", b"2")]).unwrap();
            // Dropped without sync: the buffered record is simply lost
            // (data loss, not corruption).
            std::mem::forget(wal); // Simulate losing buffered data on crash.
        }
        let (_, batches) = Wal::open(&path).unwrap();
        assert!(!batches.is_empty());
        assert_eq!(batches[0].ops, vec![put("t", b"a", b"1")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_rejects_bad_magic_and_regressing_seq() {
        // Bad magic.
        let r = scan(b"NOTAWALRECORDXXXXXXXXXXX");
        assert!(r.batches.is_empty());
        assert!(r.torn_tail);
        // Build two records with a regressing sequence by hand.
        let payload = encode_payload(&[put("t", b"k", b"v")]).unwrap();
        let mut bytes = Vec::new();
        for seq in [5u64, 3u64] {
            bytes.extend_from_slice(&MAGIC.to_le_bytes());
            bytes.extend_from_slice(&seq.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        let r = scan(&bytes);
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.batches[0].seq, 5);
        std::hint::black_box(r);
    }

    #[test]
    fn empty_transaction_is_loggable() {
        let dir = tmpdir("empty");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&[]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, batches) = Wal::open(&path).unwrap();
        assert_eq!(batches.len(), 1);
        assert!(batches[0].ops.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn new_log_file_fsyncs_parent_directory() {
        use crate::vfs::{FaultPlan, FaultVfs, IoEventKind};
        let dir = tmpdir("dirsync");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        let fault = FaultVfs::new(Arc::new(StdVfs), FaultPlan::default());
        {
            let (mut wal, _) = Wal::open_with_vfs(Arc::new(fault.clone()), &path).unwrap();
            wal.append(&[put("t", b"a", b"1")]).unwrap();
            wal.sync().unwrap();
        }
        // The open must have emitted a SyncDir for the parent, making the
        // new file's name durable (satellite fix: mirrors snapshot rename).
        let kinds: Vec<IoEventKind> = fault.events().iter().map(|e| e.kind).collect();
        assert!(
            kinds.contains(&IoEventKind::SyncDir),
            "no parent dir fsync on create: {kinds:?}"
        );
        // Worst-case crash after the records were synced: the file must
        // survive with its synced record intact.
        fault.crash_worst_case().unwrap();
        let (_, batches) = Wal::open(&path).unwrap();
        assert_eq!(batches.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_existing_log_skips_dir_sync() {
        use crate::vfs::{FaultPlan, FaultVfs, IoEventKind};
        let dir = tmpdir("dirsync-skip");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&[put("t", b"a", b"1")]).unwrap();
            wal.sync().unwrap();
        }
        let fault = FaultVfs::new(Arc::new(StdVfs), FaultPlan::default());
        let (_, batches) = Wal::open_with_vfs(Arc::new(fault.clone()), &path).unwrap();
        assert_eq!(batches.len(), 1);
        let kinds: Vec<IoEventKind> = fault.events().iter().map(|e| e.kind).collect();
        assert!(!kinds.contains(&IoEventKind::SyncDir), "{kinds:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_sync_poisons_the_log() {
        use crate::vfs::{FaultPlan, FaultVfs};
        let dir = tmpdir("poison");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        // Event sequence: 0 OpenRw, 1 SyncDir (new file). Fail sync #1
        // (the first file sync_data — sync #0 is the dir fsync).
        let fault = FaultVfs::new(Arc::new(StdVfs), FaultPlan::fail_nth_sync(1));
        let (mut wal, _) = Wal::open_with_vfs(Arc::new(fault), &path).unwrap();
        wal.append(&[put("t", b"a", b"1")]).unwrap();
        let err = wal.sync().unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err:?}");
        assert!(wal.is_poisoned());
        // Everything after the failed fsync must refuse to run.
        assert!(matches!(
            wal.append(&[put("t", b"b", b"2")]),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(wal.sync(), Err(StoreError::Poisoned)));
        assert!(matches!(wal.reset(), Err(StoreError::Poisoned)));
        drop(wal);
        // Reopen recovers: the record bytes reached the file (only the
        // fsync failed), so replay may see it — or a clean prefix.
        let (mut wal, _) = Wal::open(&path).unwrap();
        assert!(!wal.is_poisoned());
        wal.append(&[put("t", b"c", b"3")]).unwrap();
        wal.sync().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
