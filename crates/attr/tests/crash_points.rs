//! Crash-point sweep for the attribute store.
//!
//! `AttrStore` persists through the shared metadata [`Database`], which is
//! exactly the seam the fault-injection harness covers — this test proves
//! it. [`sweep_crash_points`] records every mutation I/O event of a
//! fault-free set/remove workload under a no-fault [`FaultVfs`], then
//! replays the workload once per recorded event with a simulated power loss
//! at that event (both the seeded crash model and the worst legal outcome). After every crash the
//! store reopens with the plain filesystem and the recovered attribute sets
//! must equal the state after some legal prefix of the acknowledged
//! operations — with `Durability::Sync`, that prefix is at least every
//! operation that returned `Ok` and at most one in-flight operation more.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ferret_attr::{AttrStore, Attributes, AttrsBuilder};
use ferret_core::object::ObjectId;
use ferret_store::vfs::{sweep_crash_points, FaultPlan, FaultVfs, StdVfs, Vfs};
use ferret_store::{Database, DbOptions, Durability};

/// Logical attribute state: object id → its attribute set.
type Model = BTreeMap<u64, Attributes>;

enum AOp {
    Set(u64, Attributes),
    Remove(u64),
}

/// Deterministic op mix: sets carrying the op index (so states stay
/// distinguishable), interleaved with removes over the same small id
/// space — some hitting live ids, some absent ones.
fn op_for(i: u64) -> AOp {
    if i % 4 == 3 {
        AOp::Remove((i + 2) % 7)
    } else {
        let attrs = AttrsBuilder::new()
            .int("op", i as i64)
            .text("name", &format!("object number {i}"))
            .keyword("tag", if i.is_multiple_of(2) { "even" } else { "odd" })
            .float("score", i as f64 * 0.5)
            .build();
        AOp::Set(i % 7, attrs)
    }
}

fn apply_model(model: &mut Model, op: &AOp) {
    match op {
        AOp::Set(id, attrs) => {
            model.insert(*id, attrs.clone());
        }
        AOp::Remove(id) => {
            model.remove(id);
        }
    }
}

/// `prefixes[k]` is the attribute state after the first `k` operations.
fn prefix_models(total: u64) -> Vec<Model> {
    let mut prefixes = vec![Model::new()];
    let mut current = Model::new();
    for i in 0..total {
        apply_model(&mut current, &op_for(i));
        prefixes.push(current.clone());
    }
    prefixes
}

struct RunOutcome {
    /// Operations whose `set`/`remove` returned `Ok` (all durable under
    /// `Durability::Sync`).
    ops_done: u64,
    /// 1 if an operation itself failed: its record may have reached the
    /// WAL even though the call reported an error.
    in_flight: u64,
    failed: bool,
}

fn run_workload(vfs: Arc<dyn Vfs>, dir: &Path, total: u64) -> RunOutcome {
    let options = DbOptions {
        durability: Durability::Sync,
        checkpoint_every: None,
    };
    let mut db = match Database::open_with_vfs(vfs, dir, options) {
        Ok(db) => db,
        Err(_) => {
            return RunOutcome {
                ops_done: 0,
                in_flight: 0,
                failed: true,
            }
        }
    };
    let mut store = match AttrStore::load(&db) {
        Ok(store) => store,
        Err(_) => {
            return RunOutcome {
                ops_done: 0,
                in_flight: 0,
                failed: true,
            }
        }
    };
    for i in 0..total {
        let result = match op_for(i) {
            AOp::Set(id, attrs) => store.set(&mut db, ObjectId(id), attrs),
            AOp::Remove(id) => store.remove(&mut db, ObjectId(id)).map(|_| ()),
        };
        if result.is_err() {
            return RunOutcome {
                ops_done: i,
                in_flight: 1,
                failed: true,
            };
        }
    }
    RunOutcome {
        ops_done: total,
        in_flight: 0,
        failed: false,
    }
}

/// Reopens the store with the real filesystem and reads every recovered
/// attribute set back through `AttrStore::load` — the production
/// recovery path.
fn read_state(dir: &Path) -> Model {
    let db = Database::open(dir).expect("recovery after crash must succeed");
    let store = AttrStore::load(&db).expect("attribute recovery must succeed");
    let mut model = Model::new();
    for id in store.index().all_ids() {
        let attrs = store.get(*id).expect("indexed id has attributes");
        model.insert(id.0, attrs.clone());
    }
    model
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ferret-attrcrash-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn attr_workload_recovers_from_every_crash_point() {
    const TOTAL_OPS: u64 = 32;
    let base = tmpdir("sweep");
    let prefixes = prefix_models(TOTAL_OPS);
    let total_events = sweep_crash_points(
        &base,
        0xa77_c4a5_1234,
        |vfs, dir| run_workload(vfs, dir, TOTAL_OPS),
        |point, dir, outcome| {
            let Some(point) = point else {
                assert!(!outcome.failed, "fault-free run failed");
                assert_eq!(read_state(dir), prefixes[TOTAL_OPS as usize]);
                return;
            };
            assert!(
                outcome.failed || outcome.ops_done == TOTAL_OPS,
                "{point}: crash did not fire"
            );
            let recovered = read_state(dir);
            // Remove-of-absent ops repeat states, so prefixes are not all
            // distinct: accept any prefix index inside the legal window
            // [acknowledged, acknowledged + in-flight].
            let lo = outcome.ops_done as usize;
            let hi = (outcome.ops_done + outcome.in_flight) as usize;
            assert!(
                (lo..=hi).any(|k| prefixes[k] == recovered),
                "{point}: recovered {} attribute sets, not the state after any \
                 of ops {lo}..={hi}",
                recovered.len()
            );
        },
    );
    assert!(
        total_events >= 40,
        "only {total_events} fault points recorded; the workload is not \
         exercising the durable path"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// ENOSPC mid-workload without a crash: operations fail once the byte
/// budget runs out, but everything acknowledged stays readable.
#[test]
fn attr_workload_survives_byte_budget_exhaustion() {
    const TOTAL_OPS: u64 = 32;
    let prefixes = prefix_models(TOTAL_OPS);
    for budget in [0u64, 128, 900, 2500] {
        let dir = tmpdir(&format!("enospc-{budget}"));
        let fault = FaultVfs::new(
            Arc::new(StdVfs),
            FaultPlan {
                seed: budget,
                byte_budget: Some(budget),
                ..FaultPlan::default()
            },
        );
        let outcome = run_workload(Arc::new(fault.clone()), &dir, TOTAL_OPS);
        assert!(outcome.failed, "budget {budget}: never hit ENOSPC");
        let recovered = read_state(&dir);
        let lo = outcome.ops_done as usize;
        let hi = (outcome.ops_done + outcome.in_flight) as usize;
        assert!(
            (lo..=hi).any(|k| prefixes[k] == recovered),
            "budget {budget}: recovered state is not the state after any \
             of ops {lo}..={hi}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
