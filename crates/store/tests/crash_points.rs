//! Exhaustive crash-point recovery harness.
//!
//! For each scripted workload (WAL-only, checkpoint-heavy, buffered),
//! [`sweep_crash_points`] records every mutation I/O event under a no-fault
//! [`FaultVfs`], then replays the workload once per recorded event index
//! with a plan that simulates power loss at exactly that event — twice per
//! index, once with the seeded crash model and once with the worst legal
//! outcome (all unsynced bytes, names, and renames lost). After every crash
//! the store is reopened with the plain filesystem and its recovered
//! contents must equal *some* prefix of the committed transactions (no
//! partial transaction, no reordering) at or past the durable floor — the
//! last transaction whose durability the API promised via a successful
//! fsyncing operation.
//!
//! Every transaction writes a monotone `meta/txn_count` cell, so all
//! prefixes are pairwise distinct and "equals some prefix" identifies the
//! recovery point exactly rather than sampling it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ferret_store::vfs::{sweep_crash_points, FaultPlan, FaultVfs, StdVfs, Vfs};
use ferret_store::{Database, DbOptions, Durability};

/// Logical store contents: table → key → value, empty tables dropped.
type Model = BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>>;

#[derive(Clone)]
enum SOp {
    Put(&'static str, Vec<u8>, Vec<u8>),
    Del(&'static str, Vec<u8>),
}

#[derive(Clone)]
enum Step {
    /// Commit transaction number `i` (ops derived deterministically).
    Txn(u64),
    Checkpoint,
    Flush,
}

/// Deterministic op mix for transaction `i`: puts, overwrites, deletes,
/// and multi-table transactions, plus the distinguishing counter cell.
fn txn_ops(i: u64) -> Vec<SOp> {
    let key = |n: u64| format!("key-{}", n % 7).into_bytes();
    let mut ops = vec![SOp::Put(
        "meta",
        b"txn_count".to_vec(),
        i.to_le_bytes().to_vec(),
    )];
    match i % 5 {
        0 => ops.push(SOp::Put("data", key(i), format!("value-{i}").into_bytes())),
        1 => {
            ops.push(SOp::Put("data", key(i), format!("value-{i}").into_bytes()));
            ops.push(SOp::Put("aux", key(i + 1), format!("aux-{i}").into_bytes()));
        }
        2 => {
            ops.push(SOp::Put("data", key(i), format!("value-{i}").into_bytes()));
            ops.push(SOp::Del("data", key(i + 3)));
        }
        3 => ops.push(SOp::Del("aux", key(i))),
        _ => {
            for j in 0..3 {
                ops.push(SOp::Put(
                    "data",
                    key(i + j),
                    format!("v-{i}-{j}").into_bytes(),
                ));
            }
        }
    }
    ops
}

fn apply_model(model: &mut Model, ops: &[SOp]) {
    for op in ops {
        match op {
            SOp::Put(table, key, value) => {
                model
                    .entry((*table).to_string())
                    .or_default()
                    .insert(key.clone(), value.clone());
            }
            SOp::Del(table, key) => {
                if let Some(t) = model.get_mut(*table) {
                    t.remove(key);
                }
            }
        }
    }
}

fn normalize(mut model: Model) -> Model {
    model.retain(|_, t| !t.is_empty());
    model
}

/// The distinct committed-prefix states `steps` can pass through:
/// `prefixes[k]` is the store contents after the first `k` transactions.
fn prefix_models(steps: &[Step]) -> Vec<Model> {
    let mut prefixes = vec![Model::new()];
    let mut current = Model::new();
    for step in steps {
        if let Step::Txn(i) = step {
            apply_model(&mut current, &txn_ops(*i));
            prefixes.push(normalize(current.clone()));
        }
    }
    prefixes
}

struct RunOutcome {
    /// Transactions whose commit() returned Ok.
    txns_done: u64,
    /// Transactions guaranteed durable by a successful fsyncing step.
    durable_floor: u64,
    /// 1 if the failing step was itself a transaction commit: its record
    /// was already in the WAL buffer, so a torn flush can legitimately
    /// persist it even though commit() reported an error.
    in_flight: u64,
    /// True if some step failed (the injected fault fired mid-workload).
    failed: bool,
}

/// Replays `steps` against a store opened over `vfs`, stopping at the
/// first error. Mirrors the store's internal flush/checkpoint cadence to
/// compute the durable floor from the outside.
fn run_workload(vfs: Arc<dyn Vfs>, dir: &Path, options: DbOptions, steps: &[Step]) -> RunOutcome {
    let mut db = match Database::open_with_vfs(vfs, dir, options) {
        Ok(db) => db,
        Err(_) => {
            return RunOutcome {
                txns_done: 0,
                durable_floor: 0,
                in_flight: 0,
                failed: true,
            }
        }
    };
    let mut txns_done = 0u64;
    let mut durable_floor = 0u64;
    let mut since_flush = 0usize;
    let mut since_checkpoint = 0usize;
    for step in steps {
        let result = match step {
            Step::Txn(i) => {
                let mut txn = db.begin();
                for op in txn_ops(*i) {
                    match op {
                        SOp::Put(table, key, value) => txn.put(table, &key, &value),
                        SOp::Del(table, key) => txn.delete(table, &key),
                    }
                }
                txn.commit()
            }
            Step::Flush => db.flush(),
            Step::Checkpoint => db.checkpoint(),
        };
        if result.is_err() {
            return RunOutcome {
                txns_done,
                durable_floor,
                in_flight: u64::from(matches!(step, Step::Txn(_))),
                failed: true,
            };
        }
        match step {
            Step::Txn(_) => {
                txns_done += 1;
                match options.durability {
                    Durability::Sync => durable_floor = txns_done,
                    Durability::Buffered { flush_every } => {
                        since_flush += 1;
                        if since_flush >= flush_every {
                            durable_floor = txns_done;
                            since_flush = 0;
                        }
                    }
                }
                since_checkpoint += 1;
                if let Some(every) = options.checkpoint_every {
                    if since_checkpoint >= every {
                        durable_floor = txns_done;
                        since_checkpoint = 0;
                        since_flush = 0;
                    }
                }
            }
            Step::Flush => {
                durable_floor = txns_done;
                since_flush = 0;
            }
            Step::Checkpoint => {
                durable_floor = txns_done;
                since_flush = 0;
                since_checkpoint = 0;
            }
        }
    }
    RunOutcome {
        txns_done,
        durable_floor,
        in_flight: 0,
        failed: false,
    }
}

/// Reads the recovered store contents with the real filesystem.
fn read_state(dir: &Path) -> Model {
    let db = Database::open(dir).expect("recovery after crash must succeed");
    let mut model = Model::new();
    let names: Vec<String> = db.table_names().iter().map(|s| s.to_string()).collect();
    for name in names {
        let table: BTreeMap<Vec<u8>, Vec<u8>> = db
            .iter_table(&name)
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        if !table.is_empty() {
            model.insert(name, table);
        }
    }
    model
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ferret-crashpt-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Enumerates every crash point of one workload and checks recovery at
/// each. Returns the number of distinct fault points exercised.
fn sweep(name: &str, options: DbOptions, steps: &[Step]) -> u64 {
    let base = tmpdir(name);
    let total_txns = steps.iter().filter(|s| matches!(s, Step::Txn(_))).count() as u64;
    let prefixes = prefix_models(steps);
    let total_events = sweep_crash_points(
        &base,
        0xd6e8_feb8_6659_fd93,
        |vfs, dir| run_workload(vfs, dir, options, steps),
        |point, dir, outcome| {
            let Some(point) = point else {
                assert!(!outcome.failed, "[{name}] fault-free run failed");
                assert_eq!(outcome.txns_done, total_txns);
                assert_eq!(read_state(dir), prefixes[total_txns as usize]);
                return;
            };
            // The crash fires mid-workload, except at the tail where only
            // the drop-time flush is interrupted.
            assert!(
                outcome.failed || outcome.txns_done == total_txns,
                "[{name}] {point}: crash did not fire"
            );
            let recovered = read_state(dir);
            let k = prefixes.iter().position(|p| *p == recovered);
            let k = k.unwrap_or_else(|| {
                panic!(
                    "[{name}] {point}: recovered state is not a committed prefix \
                     (txns_done={}, floor={})",
                    outcome.txns_done, outcome.durable_floor
                )
            });
            assert!(
                k as u64 >= outcome.durable_floor,
                "[{name}] {point}: recovered prefix {k} below durable floor {}",
                outcome.durable_floor
            );
            assert!(
                k as u64 <= outcome.txns_done + outcome.in_flight,
                "[{name}] {point}: recovered prefix {k} beyond committed count {} \
                 (+{} in flight)",
                outcome.txns_done,
                outcome.in_flight
            );
        },
    );
    std::fs::remove_dir_all(&base).ok();
    total_events
}

fn wal_sync_workload() -> (DbOptions, Vec<Step>) {
    let options = DbOptions {
        durability: Durability::Sync,
        checkpoint_every: None,
    };
    let steps = (0..40).map(Step::Txn).collect();
    (options, steps)
}

fn checkpoint_workload() -> (DbOptions, Vec<Step>) {
    let options = DbOptions {
        durability: Durability::Sync,
        checkpoint_every: None,
    };
    let mut steps = Vec::new();
    for i in 0..30 {
        steps.push(Step::Txn(i));
        if (i + 1) % 6 == 0 {
            steps.push(Step::Checkpoint);
        }
    }
    (options, steps)
}

fn buffered_workload() -> (DbOptions, Vec<Step>) {
    let options = DbOptions {
        durability: Durability::Buffered { flush_every: 3 },
        checkpoint_every: Some(8),
    };
    let mut steps = Vec::new();
    for i in 0..26 {
        steps.push(Step::Txn(i));
        if i == 10 || i == 19 {
            steps.push(Step::Flush);
        }
    }
    // No trailing flush: the last commits stay buffered so drop-time and
    // crash-time loss of unsynced records is part of the sweep.
    (options, steps)
}

/// The acceptance gate: ≥ 200 distinct injected crash points across WAL,
/// checkpoint, and buffered workloads, every single one recovering to a
/// consistent committed prefix.
#[test]
fn crash_point_enumeration_covers_full_failure_space() {
    let (opts_a, steps_a) = wal_sync_workload();
    let (opts_b, steps_b) = checkpoint_workload();
    let (opts_c, steps_c) = buffered_workload();
    let a = sweep("wal-sync", opts_a, &steps_a);
    let b = sweep("checkpoint", opts_b, &steps_b);
    let c = sweep("buffered", opts_c, &steps_c);
    let total = a + b + c;
    assert!(
        total >= 200,
        "only {total} distinct crash points enumerated (wal={a}, ckpt={b}, buf={c})"
    );
}

/// ENOSPC mid-workload: commits fail once the byte budget is exhausted,
/// but the store stays consistent — both if the process carries on and
/// reopens cleanly, and if it dies right there.
#[test]
fn byte_budget_exhaustion_recovers_consistently() {
    let (options, steps) = wal_sync_workload();
    let prefixes = prefix_models(&steps);
    for budget in [0u64, 64, 256, 700, 1500] {
        for crash_after in [false, true] {
            let dir = tmpdir(&format!("enospc-{budget}-{}", u8::from(crash_after)));
            let fault = FaultVfs::new(
                Arc::new(StdVfs),
                FaultPlan {
                    seed: budget,
                    byte_budget: Some(budget),
                    ..FaultPlan::default()
                },
            );
            let outcome = run_workload(Arc::new(fault.clone()), &dir, options, &steps);
            assert!(outcome.failed, "budget {budget}: never hit ENOSPC");
            if crash_after {
                fault.crash().unwrap();
            }
            let recovered = read_state(&dir);
            let k = prefixes
                .iter()
                .position(|p| *p == recovered)
                .unwrap_or_else(|| panic!("budget {budget}: not a committed prefix"));
            if !crash_after {
                // Without a crash, everything the API confirmed is intact.
                assert!(k as u64 >= outcome.durable_floor, "budget {budget}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A failed fsync must not be reported as durability: the failing commit
/// errors, the WAL refuses further writes, and reopen recovers a prefix.
#[test]
fn failed_fsync_poisons_then_reopen_recovers() {
    let (options, steps) = wal_sync_workload();
    let prefixes = prefix_models(&steps);
    // Sync #0 is the new-file dir fsync; data fsyncs start at #1.
    for nth in [1u64, 2, 5, 11] {
        let dir = tmpdir(&format!("failsync-{nth}"));
        let fault = FaultVfs::new(Arc::new(StdVfs), FaultPlan::fail_nth_sync(nth));
        let outcome = run_workload(Arc::new(fault.clone()), &dir, options, &steps);
        assert!(outcome.failed, "sync {nth} never failed");
        assert_eq!(outcome.txns_done, nth - 1, "sync {nth}");
        let recovered = read_state(&dir);
        let k = prefixes
            .iter()
            .position(|p| *p == recovered)
            .unwrap_or_else(|| panic!("sync {nth}: not a committed prefix"));
        // The record's bytes reached the file even though the fsync
        // failed, so recovery may legitimately see one extra commit.
        assert!(
            k as u64 >= outcome.durable_floor && k as u64 <= outcome.txns_done + 1,
            "sync {nth}: prefix {k}, floor {}",
            outcome.durable_floor
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A torn data write (transient, not a crash): the commit errors, no
/// partial transaction becomes visible after reopen.
#[test]
fn torn_write_recovers_to_prefix() {
    let (options, steps) = wal_sync_workload();
    let prefixes = prefix_models(&steps);
    for nth in [0u64, 3, 9] {
        for keep in [0usize, 1, 7, 19] {
            let dir = tmpdir(&format!("tornw-{nth}-{keep}"));
            let fault = FaultVfs::new(
                Arc::new(StdVfs),
                FaultPlan {
                    fail_write: Some(nth),
                    torn_write_keep: Some(keep),
                    ..FaultPlan::default()
                },
            );
            let outcome = run_workload(Arc::new(fault.clone()), &dir, options, &steps);
            assert!(outcome.failed, "write {nth} never failed");
            let recovered = read_state(&dir);
            let k = prefixes
                .iter()
                .position(|p| *p == recovered)
                .unwrap_or_else(|| panic!("write {nth} keep {keep}: not a prefix"));
            assert!(k as u64 >= outcome.durable_floor, "write {nth} keep {keep}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
