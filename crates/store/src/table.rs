//! In-memory ordered tables.
//!
//! Each table is a B-tree keyed by raw bytes, mirroring the paper's use of
//! Berkeley DB B-tree tables for "efficient keyed access to the metadata"
//! (§4.1.3). Tables are the volatile image of the store; durability comes
//! from the write-ahead log and checkpoints.

use std::collections::BTreeMap;
use std::ops::Bound;

/// An ordered map of byte keys to byte values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Sum of key and value lengths, kept current by `put`/`delete` so
    /// [`Table::memory_bytes`] is O(1).
    payload_bytes: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// Inserts or overwrites a key; returns the previous value.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> Option<Vec<u8>> {
        let (key_len, value_len) = (key.len(), value.len());
        let previous = self.map.insert(key, value);
        self.payload_bytes += value_len;
        match &previous {
            Some(old) => self.payload_bytes -= old.len(),
            None => self.payload_bytes += key_len,
        }
        previous
    }

    /// Removes a key; returns the previous value.
    pub fn delete(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let previous = self.map.remove(key);
        if let Some(old) = &previous {
            self.payload_bytes -= key.len() + old.len();
        }
        previous
    }

    /// Approximate resident bytes: key and value payloads plus the two
    /// `Vec` headers each entry carries in the tree.
    pub fn memory_bytes(&self) -> usize {
        self.payload_bytes + self.map.len() * 2 * std::mem::size_of::<Vec<u8>>()
    }

    /// True if the key is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Iterates entries whose key starts with `prefix`, in key order.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 'a {
        self.map
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Iterates entries with keys in `[lo, hi)`, in key order.
    pub fn range<'a>(
        &'a self,
        lo: &'a [u8],
        hi: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 'a {
        self.map
            .range::<[u8], _>((Bound::Included(lo), Bound::Excluded(hi)))
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut t = Table::new();
        assert!(t.is_empty());
        assert_eq!(t.put(b"a".to_vec(), b"1".to_vec()), None);
        assert_eq!(t.put(b"a".to_vec(), b"22".to_vec()), Some(b"1".to_vec()));
        assert_eq!(t.get(b"a"), Some(b"22".as_ref()));
        assert!(t.contains(b"a"));
        // One key byte, two value bytes (the overwrite replaced one), one entry.
        assert_eq!(t.memory_bytes(), 3 + 2 * std::mem::size_of::<Vec<u8>>());
        assert_eq!(t.delete(b"a"), Some(b"22".to_vec()));
        assert_eq!(t.get(b"a"), None);
        assert_eq!(t.delete(b"a"), None);
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut t = Table::new();
        t.put(b"c".to_vec(), b"3".to_vec());
        t.put(b"a".to_vec(), b"1".to_vec());
        t.put(b"b".to_vec(), b"2".to_vec());
        let keys: Vec<&[u8]> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn scan_prefix_selects_subtree() {
        let mut t = Table::new();
        for k in ["attr/color", "attr/size", "sketch/1", "attr!", "attrz"] {
            t.put(k.as_bytes().to_vec(), b"v".to_vec());
        }
        let hits: Vec<&[u8]> = t.scan_prefix(b"attr/").map(|(k, _)| k).collect();
        assert_eq!(hits, vec![b"attr/color".as_ref(), b"attr/size".as_ref()]);
        assert_eq!(t.scan_prefix(b"zzz").count(), 0);
        // Empty prefix scans everything.
        assert_eq!(t.scan_prefix(b"").count(), 5);
    }

    #[test]
    fn range_is_half_open() {
        let mut t = Table::new();
        for k in [b"a", b"b", b"c", b"d"] {
            t.put(k.to_vec(), b"v".to_vec());
        }
        let keys: Vec<&[u8]> = t.range(b"b", b"d").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"b".as_ref(), b"c".as_ref()]);
    }
}
