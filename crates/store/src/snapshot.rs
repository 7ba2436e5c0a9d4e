//! Checkpoint snapshots.
//!
//! A checkpoint persists the full table image so the write-ahead log can be
//! truncated ("periodic checkpointing of the write-ahead log", paper
//! §4.1.3). Snapshots are written to a temporary file, fsynced, and
//! atomically renamed over the previous snapshot, so a crash during
//! checkpointing leaves the old snapshot intact.
//!
//! Format (little-endian):
//!
//! ```text
//! magic: u32 ("FSNP")  version: u32  body_len: u64  crc: u32(body)  body
//! body := last_seq: u64, table_count: u32, per table:
//!   name: u16-prefixed, entry_count: u64, entries { key blob, value blob }
//! ```

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::codec::{Decoder, Encoder};
use crate::crc::crc32;
use crate::error::{Result, StoreError};
use crate::table::Table;
use crate::vfs::Vfs;

const MAGIC: u32 = u32::from_le_bytes(*b"FSNP");
const VERSION: u32 = 1;

/// A decoded snapshot: table images plus the commit sequence they reflect.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Highest commit sequence number included in the snapshot.
    pub last_seq: u64,
    /// All table images, by name.
    pub tables: BTreeMap<String, Table>,
}

impl Snapshot {
    /// Serializes the snapshot to bytes.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut body = Encoder::new();
        body.put_u64(self.last_seq);
        body.put_u32(self.tables.len() as u32);
        for (name, table) in &self.tables {
            body.put_name(name)?;
            body.put_u64(table.len() as u64);
            for (k, v) in table.iter() {
                body.put_blob(k)?;
                body.put_blob(v)?;
            }
        }
        let body = body.into_bytes();
        let mut out = Vec::with_capacity(body.len() + 20);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Parses a snapshot from bytes, validating magic, version, and CRC.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut header = Decoder::new(bytes);
        let (Ok(magic), Ok(version), Ok(body_len), Ok(crc)) = (
            header.get_u32(),
            header.get_u32(),
            header.get_u64(),
            header.get_u32(),
        ) else {
            return Err(StoreError::Corrupt("snapshot too short".into()));
        };
        if magic != MAGIC {
            return Err(StoreError::Corrupt("bad snapshot magic".into()));
        }
        if version != VERSION {
            return Err(StoreError::Corrupt(format!("snapshot version {version}")));
        }
        if header.remaining() as u64 != body_len {
            return Err(StoreError::Corrupt(format!(
                "snapshot body length {} vs declared {body_len}",
                header.remaining()
            )));
        }
        let body = &bytes[20..];
        if crc32(body) != crc {
            return Err(StoreError::Corrupt("snapshot crc mismatch".into()));
        }
        let mut dec = Decoder::new(body);
        let last_seq = dec.get_u64()?;
        let table_count = dec.get_u32()? as usize;
        let mut tables = BTreeMap::new();
        for _ in 0..table_count {
            let name = dec.get_name()?;
            let entries = dec.get_u64()? as usize;
            let mut table = Table::new();
            for _ in 0..entries {
                let k = dec.get_blob()?;
                let v = dec.get_blob()?;
                table.put(k, v);
            }
            tables.insert(name, table);
        }
        if !dec.is_done() {
            return Err(StoreError::Corrupt("trailing snapshot bytes".into()));
        }
        Ok(Self { last_seq, tables })
    }

    /// Writes the snapshot durably through `vfs`: temp file, fsync,
    /// atomic rename.
    ///
    /// A failed directory fsync is an error: without it the rename is not
    /// durable and the caller must not truncate the WAL.
    pub fn write_to_vfs(&self, vfs: &dyn Vfs, path: &Path) -> Result<()> {
        let bytes = self.encode()?;
        let tmp = path.with_extension("tmp");
        {
            let mut f = vfs.create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        vfs.rename(&tmp, path)?;
        // Persist the rename itself.
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                vfs.sync_dir(dir)?;
            }
        }
        Ok(())
    }

    /// Loads a snapshot through `vfs`; `Ok(None)` if the file does not
    /// exist.
    pub fn read_from_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Option<Self>> {
        let bytes = match vfs.read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(Self::decode(&bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;

    fn sample() -> Snapshot {
        let mut t1 = Table::new();
        t1.put(b"k1".to_vec(), b"v1".to_vec());
        t1.put(b"k2".to_vec(), b"v2".to_vec());
        let t2 = Table::new();
        let mut tables = BTreeMap::new();
        tables.insert("features".to_string(), t1);
        tables.insert("empty".to_string(), t2);
        Snapshot {
            last_seq: 42,
            tables,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let bytes = snap.encode().unwrap();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn decode_rejects_corruption() {
        let snap = sample();
        let bytes = snap.encode().unwrap();
        // Too short.
        assert!(Snapshot::decode(&bytes[..10]).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(Snapshot::decode(&bad).is_err());
        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(Snapshot::decode(&bad).is_err());
        // Flipped body byte.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x01;
        assert!(Snapshot::decode(&bad).is_err());
        // Truncated body.
        assert!(Snapshot::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn file_roundtrip_and_missing() {
        let dir = std::env::temp_dir().join(format!("ferret-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.db");
        std::fs::remove_file(&path).ok();
        assert!(Snapshot::read_from_vfs(&StdVfs, &path).unwrap().is_none());
        let snap = sample();
        snap.write_to_vfs(&StdVfs, &path).unwrap();
        let back = Snapshot::read_from_vfs(&StdVfs, &path).unwrap().unwrap();
        assert_eq!(snap, back);
        // Overwrite with a different snapshot; rename must replace.
        let mut snap2 = sample();
        snap2.last_seq = 99;
        snap2.write_to_vfs(&StdVfs, &path).unwrap();
        assert_eq!(
            Snapshot::read_from_vfs(&StdVfs, &path)
                .unwrap()
                .unwrap()
                .last_seq,
            99
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_snapshot_roundtrip() {
        let snap = Snapshot::default();
        let back = Snapshot::decode(&snap.encode().unwrap()).unwrap();
        assert_eq!(back.last_seq, 0);
        assert!(back.tables.is_empty());
    }
}
