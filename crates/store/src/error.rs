//! Error types for the metadata store.

use std::fmt;
use std::io;

/// Errors produced by the metadata store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// A persisted structure failed validation (bad magic, CRC mismatch,
    /// truncated data). Recovery treats log-tail corruption as a clean end
    /// of log; corruption elsewhere surfaces as this error.
    Corrupt(String),
    /// A record or name exceeded a format limit.
    Limit(String),
    /// The referenced table does not exist.
    UnknownTable(String),
    /// A prior write/fsync failure left the write-ahead log in an unknown
    /// on-disk state; the store refuses further mutations until reopened
    /// (reopen truncates any torn tail and recovers a consistent prefix).
    Poisoned,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::Limit(msg) => write!(f, "format limit exceeded: {msg}"),
            StoreError::UnknownTable(name) => write!(f, "unknown table: {name}"),
            StoreError::Poisoned => write!(
                f,
                "write-ahead log poisoned by an earlier write/fsync failure; reopen to recover"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = StoreError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(StoreError::Corrupt("bad crc".into())
            .to_string()
            .contains("bad crc"));
        assert!(StoreError::Poisoned.to_string().contains("poisoned"));
        assert!(std::error::Error::source(&StoreError::Poisoned).is_none());
    }
}
