//! The calibration contract (DESIGN.md "Recovery path and memory account"):
//! a store's sketch parameters and seed are one stored record, written
//! only by `retune_sketches` and read by every open, so a restart serves
//! exactly what the process before it served — same parameters, same
//! stored sketches, same replies — whatever was inserted in between.

// Test fixtures are written directly; the Vfs seam covers production
// durability, not harness artifacts.
#![allow(clippy::disallowed_methods)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use ferret::core::codec::{decode_calibration, encode_calibration, encode_object};
use ferret::core::engine::EngineConfig;
use ferret::core::error::CoreError;
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::sketch::SketchParams;
use ferret::core::telemetry::MetricsRegistry;
use ferret::core::vector::FeatureVector;
use ferret::query::{
    FerretService, ServiceBuilder, ServiceError, CALIBRATION_KEY, CALIBRATION_TABLE, FEATURES_TABLE,
};
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
fn wide() -> ServiceBuilder {
    let params = SketchParams::with_options(
        NBITS,
        XOR_FOLDS,
        vec![-1000.0; DIM],
        vec![1000.0; DIM],
        None,
    )
    .unwrap();
    FerretService::builder(EngineConfig::basic(params, SEED)).db_options(db_opts())
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

    /// A reopen sketches under the stored calibration: re-deriving would
    /// let the widening object move a range, and every sketch with it.
    #[test]
    fn a_range_widening_insert_answers_the_same_after_a_restart(
        corpus in corpus_strategy(),
        widen in 4.5f32..10.0,
    ) {
        let dir = tmpdir("restart");
        let seen = {
            let mut svc = wide().open(&dir).unwrap();
            let items = corpus.iter().map(|(id, o)| (*id, o.clone(), None)).collect();
            svc.insert_batch(items).unwrap();
            svc.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap();
            // Outside every corpus range in the first dimension.
            svc.insert(ObjectId(5000), point(widen), None).unwrap();
            // Dropped without a flush: Sync durability already made every
            // commit durable.
            observe(&mut svc)
        };
        let mut reopened = wide().open(&dir).unwrap();
        prop_assert!(reopened.calibrated());
        // Recovery order is key order, not the order this process
        // inserted in; everything after it must agree.
        prop_assert_eq!(&observe(&mut reopened)[1..], &seen[1..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_calibration_record_round_trips_bit_exactly(
        bounds in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..8),
        weighted in any::<bool>(),
        nbits in 1usize..1024,
        xor_folds in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Every finite bit pattern, subnormals and -0.0 included.
        let finite = |bits: u32| {
            let x = f32::from_bits(bits);
            if x.is_finite() { x } else { f32::from_bits(bits & 0x807F_FFFF) }
        };
        let (mut mins, mut maxs, mut weights) = (Vec::new(), Vec::new(), Vec::new());
        for (a, b, w) in &bounds {
            let (a, b) = (finite(*a), finite(*b));
            mins.push(a.min(b));
            maxs.push(a.max(b));
            weights.push(finite(*w).abs());
        }
        let weights = weighted.then_some(weights);
        let Ok(params) = SketchParams::with_options(nbits, xor_folds, mins, maxs, weights) else {
            continue;
        };
        let (back, back_seed) = decode_calibration(&encode_calibration(&params, seed)).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(back_seed, seed);
        prop_assert_eq!((back.nbits, back.xor_folds), (nbits, xor_folds));
        prop_assert_eq!(bits(&back.mins), bits(&params.mins));
        prop_assert_eq!(bits(&back.maxs), bits(&params.maxs));
        prop_assert_eq!(
            back.dim_weights.as_deref().map(bits),
            params.dim_weights.as_deref().map(bits)
        );
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
fn mixed_dimension_table_is_reported_by_the_insert_not_the_derive() {
    let dir = tmpdir("mixed-dim");
    let other = DataObject::single(FeatureVector::new(vec![0.1, 0.2]).unwrap());
    write_features(&dir, &[(1, point(0.3)), (2, other)]);
    let err = wide().open(&dir).err();
    let err = err.expect("a mixed table fails the open").to_string();
    assert!(err.contains("dimension"), "{err}");

    // A table that is uniformly of another dimensionality is not adopted
    // either: the configured one stands and the insert names the mismatch.
    let dir2 = tmpdir("other-dim");
    let pair = |x: f32| DataObject::single(FeatureVector::new(vec![x, -x]).unwrap());
    write_features(&dir2, &[(1, pair(0.1)), (2, pair(0.9))]);
    let err = wide().open(&dir2).err();
    let err = err.expect("wrong --dim still fails the open").to_string();
    assert!(err.contains("dimension"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn a_record_of_another_dimensionality_fails_the_open() {
    let dir = tmpdir("record-dim");
    {
        let mut svc = wide().open(&dir).unwrap();
        svc.insert(ObjectId(1), point(0.2), None).unwrap();
        svc.insert(ObjectId(2), point(0.7), None).unwrap();
        svc.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap();
    }
    let params = SketchParams::new(NBITS, vec![0.0; DIM + 1], vec![1.0; DIM + 1]).unwrap();
    let err = FerretService::builder(EngineConfig::basic(params, SEED))
        .db_options(db_opts())
        .open(&dir)
        .err();
    assert!(
        matches!(
            err,
            Some(ServiceError::Core(CoreError::DimensionMismatch {
                expected: 4,
                actual: 3
            }))
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn record(dir: &Path) -> Option<Vec<u8>> {
    let db = Database::open_with(dir, db_opts()).unwrap();
    db.get(CALIBRATION_TABLE, CALIBRATION_KEY)
        .map(<[u8]>::to_vec)
}

#[test]
fn a_store_without_a_record_is_calibrated_once() {
    let dir = tmpdir("migrate");
    let corpus: Vec<_> = (0..12u64)
        .map(|i| (300 + i, point(i as f32 / 12.0)))
        .collect();
    // A feature table and no record: a store written before records.
    write_features(&dir, &corpus);
    let configured = wide().open(&dir).unwrap();
    let wide_params = configured.engine().sketch_builder().params().clone();
    assert!(!configured.calibrated());
    assert_eq!(wide_params.mins, vec![-1000.0; DIM]);
    drop(configured);

    // Another seed than the configured one: the reopen must take the
    // stored seed, not the configuration's.
    let mut svc = wide().open(&dir).unwrap();
    svc.retune_sketches(NBITS, XOR_FOLDS, SEED + 1).unwrap();
    assert!(svc.calibrated());
    let tuned = observe(&mut svc);
    assert_ne!(svc.engine().sketch_builder().params(), &wide_params);
    drop(svc);
    let stored = record(&dir).expect("the retune stored a record");
    assert_eq!(
        decode_calibration(&stored).unwrap(),
        (
            SketchParams::from_objects(NBITS, XOR_FOLDS, corpus.iter().map(|(_, o)| o)).unwrap(),
            SEED + 1
        )
    );

    // The reopen reads the record: every object is sketched exactly once,
    // under the stored parameters, and nothing derives again.
    let registry = Arc::new(MetricsRegistry::new());
    let mut reopened = wide().telemetry(Arc::clone(&registry)).open(&dir).unwrap();
    assert!(reopened.calibrated());
    assert_eq!(sketched_total(&registry), corpus.len() as u64);
    assert_eq!(observe(&mut reopened), tuned);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_derive_leaves_the_engine_and_the_record_untouched() {
    // Every component is the same value, too large for the ±0.5 widening
    // to register in an f32: no dimension has a range to derive.
    let dir = tmpdir("underivable");
    let flat = object(&[(vec![1.0e9; DIM], 1.0)]);
    write_features(&dir, &[(1, flat.clone()), (2, flat)]);
    let mut svc = wide().open(&dir).unwrap();
    let before = observe(&mut svc);
    let why = svc.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap_err();
    assert!(why.to_string().contains("zero range"), "{why}");
    assert!(!svc.calibrated());
    assert_eq!(observe(&mut svc), before);
    drop(svc);
    assert_eq!(record(&dir), None);

    // A calibrated store emptied of its objects keeps its record when
    // the next derive finds nothing to derive from.
    let dir2 = tmpdir("emptied");
    let mut svc = wide().open(&dir2).unwrap();
    svc.insert(ObjectId(1), point(0.2), None).unwrap();
    svc.insert(ObjectId(2), point(0.6), None).unwrap();
    svc.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap();
    let params = svc.engine().sketch_builder().params().clone();
    svc.remove(ObjectId(1)).unwrap();
    svc.remove(ObjectId(2)).unwrap();
    assert!(svc.retune_sketches(NBITS / 2, 1, SEED + 1).is_err());
    assert_eq!(svc.engine().sketch_builder().params(), &params);
    drop(svc);
    let stored = record(&dir2).expect("record kept");
    assert_eq!(decode_calibration(&stored).unwrap(), (params, SEED));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn a_range_widening_insert_is_counted_and_moves_no_other_sketch() {
    let dir = tmpdir("out-of-range");
    let mut svc = wide().open(&dir).unwrap();
    let items = (0..8u64)
        .map(|i| (ObjectId(i), point(i as f32 / 8.0), None))
        .collect();
    svc.insert_batch(items).unwrap();
    svc.retune_sketches(NBITS, XOR_FOLDS, SEED).unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    svc.enable_telemetry(Arc::clone(&registry));
    let out_of_range = || {
        registry
            .counter_value("ferret_sketch_out_of_range_total", &[])
            .unwrap()
    };
    assert!(registry
        .render_prometheus()
        .contains("ferret_sketch_out_of_range_total 0"));
    let params = svc.engine().sketch_builder().params().clone();
    let sketches: Vec<_> = (0..8u64)
        .map(|i| svc.engine().sketched(ObjectId(i)).cloned())
        .collect();

    svc.insert(ObjectId(100), point(0.5), None).unwrap();
    assert_eq!(out_of_range(), 0, "inside the calibrated ranges");
    svc.insert_batch(vec![
        (ObjectId(101), point(3.0), None),
        (ObjectId(102), point(0.25), None),
    ])
    .unwrap();
    svc.insert(ObjectId(103), point(-2.0), None).unwrap();
    assert_eq!(out_of_range(), 2);
    assert_eq!(sketched_total(&registry), 4);
    // Counted, never acted on: the calibration and every earlier sketch
    // stand.
    assert_eq!(svc.engine().sketch_builder().params(), &params);
    for (i, sketch) in sketches.iter().enumerate() {
        assert_eq!(&svc.engine().sketched(ObjectId(i as u64)).cloned(), sketch);
    }
    std::fs::remove_dir_all(&dir).ok();
}
