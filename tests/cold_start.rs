//! The recovery contract (DESIGN.md "Recovery path and memory account"):
//! opening a store with `derive_sketch_ranges` builds the engine once and
//! yields exactly the engine a plain open followed by `retune_sketches`
//! yields — same stored sketches, same protocol replies — and a retune of
//! an already-tuned service derives, compares and builds nothing.

// Test fixtures are written directly; the Vfs seam covers production
// durability, not harness artifacts.
#![allow(clippy::disallowed_methods)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use ferret::core::codec::encode_object;
use ferret::core::engine::EngineConfig;
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::segment::IndexLayout;
use ferret::core::sketch::SketchParams;
use ferret::core::telemetry::MetricsRegistry;
use ferret::core::vector::FeatureVector;
use ferret::query::{FerretService, ServiceBuilder, FEATURES_TABLE};
use ferret::store::{Database, DbOptions, Durability};

const DIM: usize = 3;
const NBITS: usize = 64;
const XOR_FOLDS: usize = 2;
const SEED: u64 = 0x00FE_44E7;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ferret-cold-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn db_opts() -> DbOptions {
    DbOptions {
        durability: Durability::Sync,
        checkpoint_every: None,
    }
}

/// What `ferret serve` opens with: ranges far wider than any data.
fn wide(layout: IndexLayout) -> ServiceBuilder {
    let params = SketchParams::with_options(
        NBITS,
        XOR_FOLDS,
        vec![-1000.0; DIM],
        vec![1000.0; DIM],
        None,
    )
    .unwrap();
    let mut config = EngineConfig::basic(params, SEED);
    config.index_layout = layout;
    config.parallelism = Parallelism::Serial;
    config.memtable_size = 4;
    config.compaction = false;
    FerretService::builder(config).db_options(db_opts())
}

fn open_then_retune(dir: &Path, layout: IndexLayout) -> FerretService {
    let mut svc = wide(layout).open(dir).unwrap();
    svc.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap();
    svc
}

fn open_tuned(dir: &Path, layout: IndexLayout) -> FerretService {
    wide(layout).derive_sketch_ranges().open(dir).unwrap()
}

/// Everything the contract compares: insertion order first, then — by
/// ascending id, so independent of that order — the sketch parameters,
/// every stored sketch, and rendered replies in all three query modes.
fn observe(svc: &mut FerretService) -> Vec<String> {
    let mut ids = svc.engine().ids();
    let mut seen = vec![
        format!("{ids:?}"),
        format!("{:?}", svc.engine().sketch_builder().params()),
    ];
    ids.sort();
    for id in &ids {
        seen.push(format!("{id} {:?}", svc.engine().sketched(*id)));
    }
    for id in ids.iter().take(3) {
        for mode in ["filter", "brute", "sketch"] {
            seen.push(svc.execute_line(&format!("query id={} k=5 mode={mode}", id.0)));
        }
    }
    seen
}

fn object(parts: &[(Vec<f32>, f32)]) -> DataObject {
    DataObject::new(
        parts
            .iter()
            .map(|(c, w)| (FeatureVector::from_components(c.clone()), *w))
            .collect(),
    )
    .unwrap()
}

/// Corpora of 1–16 objects whose ids reach past 255, so the store's
/// little-endian key order (the recovery order) is not id order, with the
/// last dimension optionally constant (a degenerate range).
fn corpus_strategy() -> impl Strategy<Value = Vec<(ObjectId, DataObject)>> {
    let part = (prop::collection::vec(-4.0f32..4.0, DIM), 0.1f32..2.0);
    let obj = (0u64..1024, prop::collection::vec(part, 1..4));
    (prop::collection::vec(obj, 1..16), any::<bool>()).prop_map(|(objects, flat)| {
        let mut seen = std::collections::HashSet::new();
        objects
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .map(|(id, mut parts)| {
                if flat {
                    parts.iter_mut().for_each(|(c, _)| c[DIM - 1] = 0.25);
                }
                (ObjectId(id), object(&parts))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_pass_open_equals_wide_open_plus_retune(
        corpus in corpus_strategy(),
        layout_idx in 0usize..2,
    ) {
        let layout = [IndexLayout::Monolithic, IndexLayout::Segmented][layout_idx];
        let dir = tmpdir(&format!("equiv-{layout_idx}"));
        {
            let mut svc = wide(layout).open(&dir).unwrap();
            let items = corpus.iter().map(|(id, o)| (*id, o.clone(), None)).collect();
            svc.insert_batch(items).unwrap();
        }
        let two_pass = {
            let mut svc = open_then_retune(&dir, layout);
            prop_assert_eq!(svc.recovery().engine_builds, 2);
            observe(&mut svc)
        };
        let mut tuned = open_tuned(&dir, layout);
        prop_assert_eq!(tuned.recovery().engine_builds, 1);
        prop_assert!(tuned.recovery().derive_error.is_none());
        prop_assert_eq!(&observe(&mut tuned), &two_pass, "{:?}", layout);
        // The retune `ferret serve` still issues finds nothing to do.
        tuned.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap();
        prop_assert_eq!(tuned.recovery().engine_builds, 1);
        prop_assert_eq!(&observe(&mut tuned), &two_pass);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn point(x: f32) -> DataObject {
    object(&[(vec![x, 1.0 - x, 0.5 * x], 1.0)])
}

fn sketched_total(registry: &MetricsRegistry) -> u64 {
    registry
        .counter_value("ferret_sketch_objects_total", &[])
        .unwrap()
}

#[test]
fn retune_of_a_tuned_service_builds_nothing_until_a_range_widens() {
    for layout in [IndexLayout::Monolithic, IndexLayout::Segmented] {
        let dir = tmpdir(&format!("idempotent-{layout}"));
        {
            let mut svc = wide(layout).open(&dir).unwrap();
            let items = (0..10u64)
                .map(|i| (ObjectId(300 + i), point(i as f32 / 10.0), None))
                .collect();
            svc.insert_batch(items).unwrap();
        }
        let mut svc = open_tuned(&dir, layout);
        let registry = Arc::new(MetricsRegistry::new());
        svc.enable_telemetry(Arc::clone(&registry));
        let (epoch, sketched) = (svc.cache_epoch(), sketched_total(&registry));

        svc.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap();
        assert_eq!(sketched_total(&registry), sketched, "no object re-sketched");
        assert_eq!(svc.recovery().engine_builds, 1);
        assert!(
            svc.cache_epoch() > epoch,
            "cached replies still invalidated"
        );

        // Inside the derived ranges: sketched once on insert, not again.
        svc.insert(ObjectId(7), point(0.45), None).unwrap();
        svc.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap();
        assert_eq!(sketched_total(&registry), sketched + 1);

        // Outside them: the whole corpus is rebuilt, in place.
        svc.insert(ObjectId(8), point(3.0), None).unwrap();
        svc.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap();
        assert_eq!(sketched_total(&registry), sketched + 2 + 12);
        assert_eq!(svc.recovery().engine_builds, 2);
        assert!(
            registry
                .render_prometheus()
                .contains("ferret_recovery_seconds{stage=\"retune\"}"),
            "retune stage published"
        );
        let rebuilt = observe(&mut svc);
        drop(svc);
        let mut fresh = open_then_retune(&dir, layout);
        // Recovery order is key order, not the order this process inserted
        // in; everything after it must agree.
        assert_eq!(rebuilt[1..], observe(&mut fresh)[1..], "{layout}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Writes objects straight into the feature table, bypassing the engine's
/// own dimension check — the state a store is in after a `--dim` change.
fn write_features(dir: &Path, objects: &[(u64, DataObject)]) {
    let mut db = Database::open_with(dir, db_opts()).unwrap();
    let mut txn = db.begin();
    for (id, o) in objects {
        txn.put(FEATURES_TABLE, &id.to_le_bytes(), &encode_object(o));
    }
    txn.commit().unwrap();
}

#[test]
fn underivable_ranges_fall_back_to_the_configured_ones() {
    // Every component is the same value, too large for the ±0.5 widening
    // to register in an f32: no dimension has a range to derive.
    let dir = tmpdir("underivable");
    let flat = object(&[(vec![1.0e9; DIM], 1.0)]);
    write_features(&dir, &[(1, flat.clone()), (2, flat)]);
    let mut tuned = open_tuned(&dir, IndexLayout::Monolithic);
    let why = tuned
        .recovery()
        .derive_error
        .clone()
        .expect("derive failed");
    assert!(why.contains("zero range"), "{why}");
    assert_eq!(tuned.recovery().engine_builds, 1);
    let seen = observe(&mut tuned);
    drop(tuned);
    // Exactly what a plain open serves, whose retune fails the same way.
    let mut plain = wide(IndexLayout::Monolithic).open(&dir).unwrap();
    assert!(plain.retune_sketches(NBITS, XOR_FOLDS, SEED).is_err());
    assert_eq!(observe(&mut plain), seen);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixed_dimension_table_is_reported_by_the_insert_not_the_derive() {
    let dir = tmpdir("mixed-dim");
    let other = DataObject::single(FeatureVector::new(vec![0.1, 0.2]).unwrap());
    write_features(&dir, &[(1, point(0.3)), (2, other)]);
    let open = |tuned: bool| {
        let builder = wide(IndexLayout::Monolithic);
        let builder = if tuned {
            builder.derive_sketch_ranges()
        } else {
            builder
        };
        builder.open(&dir).err().map(|e| e.to_string())
    };
    // Deriving over mixed dimensions fails first, falls back, and leaves
    // the verdict to the same check a plain open runs.
    let plain = open(false).expect("a plain open rejects the table");
    assert!(plain.contains("dimension"), "{plain}");
    assert_eq!(open(true), Some(plain));

    // A table that is uniformly of another dimensionality is not adopted
    // either: the configured one stands and the insert names the mismatch.
    let dir2 = tmpdir("other-dim");
    let pair = |x: f32| DataObject::single(FeatureVector::new(vec![x, -x]).unwrap());
    write_features(&dir2, &[(1, pair(0.1)), (2, pair(0.9))]);
    let err = wide(IndexLayout::Monolithic)
        .derive_sketch_ranges()
        .open(&dir2)
        .err()
        .expect("wrong --dim still fails the open");
    assert!(err.to_string().contains("dimension"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}
