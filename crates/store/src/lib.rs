//! # ferret-store
//!
//! Embedded transactional metadata store for the Ferret toolkit, replacing
//! the paper's use of Berkeley DB (§4.1.3). Provides named B-tree tables,
//! atomic multi-table transactions, a CRC-protected write-ahead log,
//! periodic checkpoint snapshots, and crash recovery that restores a
//! consistent prefix of committed transactions.
//!
//! ```
//! use ferret_store::{Database, DbOptions, Durability};
//!
//! let dir = std::env::temp_dir().join(format!("ferret-store-doc-{}", std::process::id()));
//! let mut db = Database::open_with(&dir, DbOptions {
//!     durability: Durability::Sync,
//!     checkpoint_every: None,
//! }).unwrap();
//!
//! // All updates for one object commit atomically.
//! let mut txn = db.begin();
//! txn.put("features", b"obj:1", b"...feature vector bytes...");
//! txn.put("sketches", b"obj:1", b"...sketch bytes...");
//! txn.commit().unwrap();
//!
//! assert!(db.get("sketches", b"obj:1").is_some());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod db;
pub mod error;
pub mod snapshot;
pub mod table;
pub mod vfs;
pub mod wal;

pub use db::{Database, DbOptions, Durability, Transaction};
pub use error::{Result, StoreError};
pub use table::Table;
pub use vfs::{sweep_crash_points, CrashPoint, FaultPlan, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{Batch, Op, Wal};
