//! The in-memory attribute index.
//!
//! Maintains an inverted index from `(field, token)` to object ids for
//! keyword matching, plus a per-field ordered numeric index for range
//! queries. The index is the volatile image of the attributes table; it is
//! rebuilt from persisted attributes on open.
//!
//! The decoded attribute map of an object is needed only to report it and
//! to find its postings again on removal, so the index keeps each set in
//! a packed form (two allocations per object instead of two per field plus
//! the tree) and unpacks on demand.

use std::collections::{BTreeMap, HashMap, HashSet};

use ferret_core::object::ObjectId;

use crate::value::{AttrValue, Attributes};

/// Totally ordered f64 wrapper for use as a BTreeMap key (NaNs rejected at
/// insertion time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One packed field: where its name ends in [`Packed::text`], and its
/// value — strings as the offset where they end, numbers inline.
#[derive(Debug)]
enum PackedValue {
    Text(usize),
    Keyword(usize),
    Int(i64),
    Float(f64),
}

/// An attribute set in its resident form: every field name and string
/// value back to back in one `str`, one fixed-size record per field, in
/// field-name order.
#[derive(Debug)]
struct Packed {
    text: Box<str>,
    fields: Box<[(usize, PackedValue)]>,
}

impl Packed {
    fn pack(attrs: &Attributes) -> Self {
        let mut text = String::new();
        let fields = attrs
            .iter()
            .map(|(field, value)| {
                text.push_str(field);
                let name_end = text.len();
                let value = match value {
                    AttrValue::Text(s) => {
                        text.push_str(s);
                        PackedValue::Text(text.len())
                    }
                    AttrValue::Keyword(s) => {
                        text.push_str(s);
                        PackedValue::Keyword(text.len())
                    }
                    AttrValue::Int(i) => PackedValue::Int(*i),
                    AttrValue::Float(f) => PackedValue::Float(*f),
                };
                (name_end, value)
            })
            .collect();
        Self {
            text: text.into_boxed_str(),
            fields,
        }
    }

    fn unpack(&self) -> Attributes {
        let mut start = 0;
        let mut attrs = Attributes::new();
        for (name_end, value) in self.fields.iter() {
            let field = self.text[start..*name_end].to_string();
            start = *name_end;
            let mut string = |end: usize| {
                let s = self.text[start..end].to_string();
                start = end;
                s
            };
            let value = match value {
                PackedValue::Text(end) => AttrValue::Text(string(*end)),
                PackedValue::Keyword(end) => AttrValue::Keyword(string(*end)),
                PackedValue::Int(i) => AttrValue::Int(*i),
                PackedValue::Float(f) => AttrValue::Float(*f),
            };
            attrs.insert(field, value);
        }
        attrs
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.text.len()
            + self.fields.len() * std::mem::size_of::<(usize, PackedValue)>()
    }
}

/// Estimated resident bytes of one id in a posting set or map slot: the
/// id plus hash-table control bytes and load-factor slack.
const POSTING_BYTES: usize = 2 * std::mem::size_of::<ObjectId>();

/// Estimated resident bytes of one posting key beyond its text: the
/// owned strings' headers and the (initially tiny) id set behind it.
const KEY_BYTES: usize =
    2 * std::mem::size_of::<String>() + std::mem::size_of::<HashSet<ObjectId>>();

/// Inverted + numeric attribute index.
#[derive(Debug, Default)]
pub struct AttrIndex {
    /// `(field, token)` -> ids.
    tokens: HashMap<(String, String), HashSet<ObjectId>>,
    /// `field` -> ordered numeric value -> ids.
    numbers: HashMap<String, BTreeMap<OrdF64, HashSet<ObjectId>>>,
    /// Everything indexed, for NOT queries.
    all: HashSet<ObjectId>,
    /// Per-object attributes, for removal and reporting.
    attrs: HashMap<ObjectId, Packed>,
    /// Running estimate behind [`AttrIndex::memory_bytes`], kept by
    /// `insert`/`remove` so reading it is O(1).
    bytes: usize,
}

impl AttrIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// True if no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// All indexed object ids.
    pub fn all_ids(&self) -> &HashSet<ObjectId> {
        &self.all
    }

    /// The stored attributes of an object, unpacked into an owned map.
    pub fn attributes(&self, id: ObjectId) -> Option<Attributes> {
        self.attrs.get(&id).map(Packed::unpack)
    }

    /// Approximate resident bytes of the index: packed attribute sets,
    /// posting keys and posting ids. An estimate from lengths, not a
    /// measurement — hash tables round capacities up.
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// Indexes (or re-indexes) an object's attributes.
    pub fn insert(&mut self, id: ObjectId, attrs: Attributes) {
        self.remove(id);
        for (field, value) in &attrs {
            for token in value.tokens() {
                let key_text = field.len() + token.len();
                let set = self.tokens.entry((field.clone(), token)).or_default();
                if set.is_empty() {
                    self.bytes += KEY_BYTES + key_text;
                }
                if set.insert(id) {
                    self.bytes += POSTING_BYTES;
                }
            }
            if let Some(n) = value.as_number() {
                if n.is_finite() {
                    let set = self
                        .numbers
                        .entry(field.clone())
                        .or_default()
                        .entry(OrdF64(n))
                        .or_default();
                    if set.is_empty() {
                        self.bytes += KEY_BYTES;
                    }
                    if set.insert(id) {
                        self.bytes += POSTING_BYTES;
                    }
                }
            }
        }
        self.all.insert(id);
        let packed = Packed::pack(&attrs);
        self.bytes += POSTING_BYTES + packed.memory_bytes();
        self.attrs.insert(id, packed);
    }

    /// Removes an object from the index; returns `true` if it was present.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        let Some(packed) = self.attrs.remove(&id) else {
            return false;
        };
        self.bytes -= POSTING_BYTES + packed.memory_bytes();
        for (field, value) in &packed.unpack() {
            for token in value.tokens() {
                let key = (field.clone(), token);
                if let Some(set) = self.tokens.get_mut(&key) {
                    if set.remove(&id) {
                        self.bytes -= POSTING_BYTES;
                    }
                    if set.is_empty() {
                        self.bytes -= KEY_BYTES + key.0.len() + key.1.len();
                        self.tokens.remove(&key);
                    }
                }
            }
            if let Some(n) = value.as_number() {
                if let Some(by_val) = self.numbers.get_mut(field) {
                    if let Some(set) = by_val.get_mut(&OrdF64(n)) {
                        if set.remove(&id) {
                            self.bytes -= POSTING_BYTES;
                        }
                        if set.is_empty() {
                            self.bytes -= KEY_BYTES;
                            by_val.remove(&OrdF64(n));
                        }
                    }
                    if by_val.is_empty() {
                        self.numbers.remove(field);
                    }
                }
            }
        }
        self.all.remove(&id);
        true
    }

    /// Objects whose `field` contains `token` (case-insensitive).
    pub fn match_token(&self, field: &str, token: &str) -> HashSet<ObjectId> {
        self.tokens
            .get(&(field.to_string(), token.to_ascii_lowercase()))
            .cloned()
            .unwrap_or_default()
    }

    /// Objects whose token appears in *any* field.
    pub fn match_any_field(&self, token: &str) -> HashSet<ObjectId> {
        let token = token.to_ascii_lowercase();
        let mut out = HashSet::new();
        for ((_, t), ids) in &self.tokens {
            if *t == token {
                out.extend(ids.iter().copied());
            }
        }
        out
    }

    /// Objects whose numeric `field` lies in `[lo, hi]` (either bound may be
    /// unbounded).
    pub fn match_range(&self, field: &str, lo: Option<f64>, hi: Option<f64>) -> HashSet<ObjectId> {
        let mut out = HashSet::new();
        let Some(by_val) = self.numbers.get(field) else {
            return out;
        };
        use std::ops::Bound;
        let lo_bound = lo.map_or(Bound::Unbounded, |v| Bound::Included(OrdF64(v)));
        let hi_bound = hi.map_or(Bound::Unbounded, |v| Bound::Included(OrdF64(v)));
        for (_, ids) in by_val.range((lo_bound, hi_bound)) {
            out.extend(ids.iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttrsBuilder;

    fn index_with_three() -> AttrIndex {
        let mut idx = AttrIndex::new();
        idx.insert(
            ObjectId(1),
            AttrsBuilder::new()
                .text("caption", "a red dog playing")
                .keyword("collection", "corel")
                .int("year", 2001)
                .build(),
        );
        idx.insert(
            ObjectId(2),
            AttrsBuilder::new()
                .text("caption", "a blue bird")
                .keyword("collection", "corel")
                .int("year", 2004)
                .build(),
        );
        idx.insert(
            ObjectId(3),
            AttrsBuilder::new()
                .text("caption", "red sunset")
                .keyword("collection", "web")
                .float("year", 2005.5)
                .build(),
        );
        idx
    }

    #[test]
    fn token_matching() {
        let idx = index_with_three();
        assert_eq!(
            idx.match_token("caption", "red"),
            HashSet::from([ObjectId(1), ObjectId(3)])
        );
        assert_eq!(
            idx.match_token("caption", "RED"),
            HashSet::from([ObjectId(1), ObjectId(3)])
        );
        assert_eq!(
            idx.match_token("collection", "corel"),
            HashSet::from([ObjectId(1), ObjectId(2)])
        );
        assert!(idx.match_token("caption", "cat").is_empty());
        assert!(idx.match_token("nosuchfield", "red").is_empty());
    }

    #[test]
    fn any_field_matching() {
        let idx = index_with_three();
        assert_eq!(
            idx.match_any_field("red"),
            HashSet::from([ObjectId(1), ObjectId(3)])
        );
        assert_eq!(idx.match_any_field("web"), HashSet::from([ObjectId(3)]));
    }

    #[test]
    fn range_matching() {
        let idx = index_with_three();
        assert_eq!(
            idx.match_range("year", Some(2002.0), Some(2005.0)),
            HashSet::from([ObjectId(2)])
        );
        assert_eq!(
            idx.match_range("year", Some(2002.0), None),
            HashSet::from([ObjectId(2), ObjectId(3)])
        );
        assert_eq!(
            idx.match_range("year", None, Some(2004.0)),
            HashSet::from([ObjectId(1), ObjectId(2)])
        );
        assert_eq!(idx.match_range("year", None, None).len(), 3);
        assert!(idx.match_range("missing", None, None).is_empty());
    }

    #[test]
    fn remove_unindexes() {
        let mut idx = index_with_three();
        assert!(idx.remove(ObjectId(1)));
        assert!(!idx.remove(ObjectId(1)));
        assert_eq!(
            idx.match_token("caption", "red"),
            HashSet::from([ObjectId(3)])
        );
        assert_eq!(idx.match_range("year", None, Some(2003.0)).len(), 0);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn reinsert_replaces_attributes() {
        let mut idx = index_with_three();
        idx.insert(
            ObjectId(1),
            AttrsBuilder::new().text("caption", "green tree").build(),
        );
        assert!(!idx.match_token("caption", "dog").contains(&ObjectId(1)));
        assert!(idx.match_token("caption", "green").contains(&ObjectId(1)));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.attributes(ObjectId(1)).unwrap().len(), 1);
    }

    /// One field of every [`AttrValue`] kind, plus the edge cases packing
    /// must keep apart: empty strings and a name that is a prefix of the
    /// next one.
    fn every_kind() -> Attributes {
        AttrsBuilder::new()
            .text("caption", "a red dog, a RED dog")
            .text("cap", "")
            .keyword("collection", "Corel")
            .keyword("empty", "")
            .int("year", -2001)
            .float("gps", 40.35)
            .float("nan", f64::NAN)
            .build()
    }

    fn assert_no_postings(idx: &AttrIndex) {
        assert!(idx.tokens.is_empty(), "orphan tokens: {:?}", idx.tokens);
        assert!(idx.numbers.is_empty(), "orphan numbers: {:?}", idx.numbers);
        assert!(idx.all.is_empty() && idx.attrs.is_empty());
        assert_eq!(idx.memory_bytes(), 0);
    }

    #[test]
    fn every_value_kind_round_trips_through_insert_remove_reinsert() {
        let attrs = every_kind();
        let mut idx = AttrIndex::new();
        idx.insert(ObjectId(7), attrs.clone());
        let back = idx.attributes(ObjectId(7)).unwrap();
        // NaN != NaN, so compare the float bit for bit and the rest by value.
        assert_eq!(back.len(), attrs.len());
        for (field, value) in &attrs {
            match (value, &back[field]) {
                (AttrValue::Float(a), AttrValue::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b, "{field}"),
            }
        }
        assert!(idx.match_token("caption", "red").contains(&ObjectId(7)));
        assert!(idx.match_token("year", "-2001").contains(&ObjectId(7)));
        assert_eq!(idx.match_range("gps", Some(40.0), Some(41.0)).len(), 1);
        let resident = idx.memory_bytes();
        assert!(resident > 0);

        assert!(idx.remove(ObjectId(7)));
        assert_no_postings(&idx);

        idx.insert(ObjectId(7), attrs);
        assert_eq!(
            idx.memory_bytes(),
            resident,
            "estimate is a function of content"
        );
        assert!(idx
            .match_token("collection", "corel")
            .contains(&ObjectId(7)));
        assert!(idx.remove(ObjectId(7)));
        assert_no_postings(&idx);
    }

    #[test]
    fn empty_index_behaviour() {
        let idx = AttrIndex::new();
        assert!(idx.is_empty());
        assert!(idx.match_token("a", "b").is_empty());
        assert!(idx.attributes(ObjectId(1)).is_none());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn value_strategy() -> impl Strategy<Value = AttrValue> {
            // A small alphabet so objects share tokens and numbers.
            let word = || prop::collection::vec(0usize..4, 0..4);
            let text = |ws: Vec<usize>| {
                ws.iter()
                    .map(|w| ["red", "Dog", "", "é-1"][*w])
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            (0usize..4, word(), -3i64..3).prop_map(move |(kind, ws, n)| match kind {
                0 => AttrValue::Text(text(ws)),
                1 => AttrValue::Keyword(text(ws)),
                2 => AttrValue::Int(n),
                _ => AttrValue::Float(n as f64 / 2.0),
            })
        }

        fn attrs_strategy() -> impl Strategy<Value = Attributes> {
            prop::collection::vec((0usize..4, value_strategy()), 0..5).prop_map(|fields| {
                fields
                    .into_iter()
                    .map(|(f, v)| (["a", "ab", "b", ""][f].to_string(), v))
                    .collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any interleaving of inserts (incl. re-inserts) and removes
            /// reports exactly what was last inserted, and removing
            /// everything leaves no posting, key or byte behind.
            #[test]
            fn packed_attributes_round_trip_and_unindex_cleanly(
                ops in prop::collection::vec((0u64..6, any::<bool>(), attrs_strategy()), 1..24),
            ) {
                let mut idx = AttrIndex::new();
                let mut model: HashMap<u64, Attributes> = HashMap::new();
                for (id, remove, attrs) in ops {
                    if remove {
                        prop_assert_eq!(idx.remove(ObjectId(id)), model.remove(&id).is_some());
                    } else {
                        idx.insert(ObjectId(id), attrs.clone());
                        model.insert(id, attrs);
                    }
                    prop_assert_eq!(idx.len(), model.len());
                    for (id, attrs) in &model {
                        prop_assert_eq!(idx.attributes(ObjectId(*id)).as_ref(), Some(attrs));
                    }
                }
                for id in 0..6 {
                    idx.remove(ObjectId(id));
                }
                assert_no_postings(&idx);
            }
        }
    }
}
