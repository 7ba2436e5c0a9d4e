//! Persistent attribute store.
//!
//! Combines the in-memory [`AttrIndex`] with a table in the metadata
//! database, mirroring the paper's "separate database table ... to maintain
//! keyword attributes and user-defined annotations" (§4.1.2). Attributes
//! are re-indexed from the table on open, so the index always reflects the
//! recovered state.

use ferret_core::object::ObjectId;
use ferret_store::codec::{Decoder, Encoder};
use ferret_store::{Database, Result as StoreResult, StoreError};

use crate::index::AttrIndex;
use crate::query::Query;
use crate::value::{AttrValue, Attributes};

/// The database table attribute records live in.
pub const ATTR_TABLE: &str = "attributes";

const KIND_TEXT: u8 = 0;
const KIND_KEYWORD: u8 = 1;
const KIND_INT: u8 = 2;
const KIND_FLOAT: u8 = 3;

/// Serializes an attribute set.
pub fn encode_attributes(attrs: &Attributes) -> StoreResult<Vec<u8>> {
    let mut enc = Encoder::new();
    enc.put_u32(attrs.len() as u32);
    for (field, value) in attrs {
        enc.put_name(field)?;
        match value {
            AttrValue::Text(s) => {
                enc.put_u8(KIND_TEXT);
                enc.put_blob(s.as_bytes())?;
            }
            AttrValue::Keyword(s) => {
                enc.put_u8(KIND_KEYWORD);
                enc.put_blob(s.as_bytes())?;
            }
            AttrValue::Int(i) => {
                enc.put_u8(KIND_INT);
                enc.put_u64(*i as u64);
            }
            AttrValue::Float(f) => {
                enc.put_u8(KIND_FLOAT);
                enc.put_u64(f.to_bits());
            }
        }
    }
    Ok(enc.into_bytes())
}

/// Deserializes an attribute set.
pub fn decode_attributes(bytes: &[u8]) -> StoreResult<Attributes> {
    let mut dec = Decoder::new(bytes);
    let count = dec.get_u32()? as usize;
    let mut attrs = Attributes::new();
    for _ in 0..count {
        let field = dec.get_name()?;
        let kind = dec.get_u8()?;
        let value = match kind {
            KIND_TEXT => AttrValue::Text(
                String::from_utf8(dec.get_blob()?)
                    .map_err(|_| StoreError::Corrupt("non-utf8 text attribute".into()))?,
            ),
            KIND_KEYWORD => AttrValue::Keyword(
                String::from_utf8(dec.get_blob()?)
                    .map_err(|_| StoreError::Corrupt("non-utf8 keyword attribute".into()))?,
            ),
            KIND_INT => AttrValue::Int(dec.get_u64()? as i64),
            KIND_FLOAT => AttrValue::Float(f64::from_bits(dec.get_u64()?)),
            k => return Err(StoreError::Corrupt(format!("unknown attr kind {k}"))),
        };
        attrs.insert(field, value);
    }
    if !dec.is_done() {
        return Err(StoreError::Corrupt("trailing attribute bytes".into()));
    }
    Ok(attrs)
}

/// A persistent, queryable attribute store over a shared database.
///
/// The caller owns the [`Database`] (the engine's other metadata lives in
/// the same store); `AttrStore` owns the index and the attribute table.
#[derive(Debug, Default)]
pub struct AttrStore {
    index: AttrIndex,
}

impl AttrStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads all persisted attributes from `db` and rebuilds the index.
    pub fn load(db: &Database) -> StoreResult<Self> {
        let mut index = AttrIndex::new();
        for (key, value) in db.iter_table(ATTR_TABLE) {
            let id = match <[u8; 8]>::try_from(key) {
                Ok(raw) => ObjectId(u64::from_le_bytes(raw)),
                Err(_) => {
                    return Err(StoreError::Corrupt("attribute key not 8 bytes".into()));
                }
            };
            index.insert(id, decode_attributes(value)?);
        }
        Ok(Self { index })
    }

    /// The live index.
    pub fn index(&self) -> &AttrIndex {
        &self.index
    }

    /// Mutable access to the index, for callers that manage persistence
    /// themselves (e.g. transactional object-plus-attribute inserts).
    pub fn index_mut(&mut self) -> &mut AttrIndex {
        &mut self.index
    }

    /// Sets (replacing) an object's attributes, persisting them.
    pub fn set(&mut self, db: &mut Database, id: ObjectId, attrs: Attributes) -> StoreResult<()> {
        let bytes = encode_attributes(&attrs)?;
        db.put(ATTR_TABLE, &id.0.to_le_bytes(), &bytes)?;
        self.index.insert(id, attrs);
        Ok(())
    }

    /// Removes an object's attributes; returns `true` if it had any.
    pub fn remove(&mut self, db: &mut Database, id: ObjectId) -> StoreResult<bool> {
        db.delete(ATTR_TABLE, &id.0.to_le_bytes())?;
        Ok(self.index.remove(id))
    }

    /// The stored attributes of one object, as an owned map (the index
    /// keeps them packed).
    pub fn get(&self, id: ObjectId) -> Option<Attributes> {
        self.index.attributes(id)
    }

    /// Evaluates a parsed query.
    pub fn search(&self, query: &Query) -> std::collections::HashSet<ObjectId> {
        query.eval(&self.index)
    }

    /// Parses and evaluates a query string.
    pub fn search_str(
        &self,
        query: &str,
    ) -> Result<std::collections::HashSet<ObjectId>, crate::query::ParseError> {
        Ok(Query::parse(query)?.eval(&self.index))
    }

    /// Parses and evaluates a query string, scoring each match by the
    /// number of satisfied leaf predicates (see [`Query::eval_scored`]).
    pub fn search_scored_str(
        &self,
        query: &str,
    ) -> Result<std::collections::HashMap<ObjectId, f64>, crate::query::ParseError> {
        Ok(Query::parse(query)?.eval_scored(&self.index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttrsBuilder;
    use ferret_store::{DbOptions, Durability};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ferret-attrstore-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &std::path::Path) -> Database {
        Database::open_with(
            dir,
            DbOptions {
                durability: Durability::Sync,
                checkpoint_every: None,
            },
        )
        .unwrap()
    }

    #[test]
    fn attributes_roundtrip() {
        let attrs = AttrsBuilder::new()
            .text("caption", "red dog")
            .keyword("collection", "corel")
            .int("year", -3)
            .float("gps", 40.35)
            .build();
        let bytes = encode_attributes(&attrs).unwrap();
        let back = decode_attributes(&bytes).unwrap();
        assert_eq!(attrs, back);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_attributes(&[1, 2]).is_err());
        let attrs = AttrsBuilder::new().text("a", "b").build();
        let mut bytes = encode_attributes(&attrs).unwrap();
        bytes.push(0); // Trailing byte.
        assert!(decode_attributes(&bytes).is_err());
    }

    #[test]
    fn set_search_persist_reload() {
        let dir = tmpdir("roundtrip");
        {
            let mut db = open(&dir);
            let mut store = AttrStore::load(&db).unwrap();
            store
                .set(
                    &mut db,
                    ObjectId(1),
                    AttrsBuilder::new().text("caption", "red dog").build(),
                )
                .unwrap();
            store
                .set(
                    &mut db,
                    ObjectId(2),
                    AttrsBuilder::new().text("caption", "blue bird").build(),
                )
                .unwrap();
            let hits = store.search_str("caption:red").unwrap();
            assert_eq!(hits.len(), 1);
            assert!(hits.contains(&ObjectId(1)));
        }
        // Reopen: index is rebuilt from the table.
        let db = open(&dir);
        let store = AttrStore::load(&db).unwrap();
        assert_eq!(store.index().len(), 2);
        assert_eq!(store.search_str("caption:blue").unwrap().len(), 1);
        assert_eq!(
            store.get(ObjectId(1)).unwrap()["caption"],
            AttrValue::Text("red dog".into())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_persists() {
        let dir = tmpdir("remove");
        {
            let mut db = open(&dir);
            let mut store = AttrStore::load(&db).unwrap();
            store
                .set(
                    &mut db,
                    ObjectId(1),
                    AttrsBuilder::new().text("a", "x").build(),
                )
                .unwrap();
            assert!(store.remove(&mut db, ObjectId(1)).unwrap());
            assert!(!store.remove(&mut db, ObjectId(1)).unwrap());
        }
        let db = open(&dir);
        let store = AttrStore::load(&db).unwrap();
        assert!(store.index().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replace_updates_index() {
        let dir = tmpdir("replace");
        let mut db = open(&dir);
        let mut store = AttrStore::load(&db).unwrap();
        store
            .set(
                &mut db,
                ObjectId(1),
                AttrsBuilder::new().text("a", "old").build(),
            )
            .unwrap();
        store
            .set(
                &mut db,
                ObjectId(1),
                AttrsBuilder::new().text("a", "new").build(),
            )
            .unwrap();
        assert!(store.search_str("a:old").unwrap().is_empty());
        assert_eq!(store.search_str("a:new").unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
