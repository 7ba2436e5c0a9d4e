//! Virtual filesystem seam for the persistence layer.
//!
//! The store's durability contract (paper §4.1.3: after a crash, recovery
//! restores "the consistent state of the last intact commit") can only be
//! *proven* if every byte the store writes can be failed, torn, or dropped
//! on demand. This module is that seam: [`Vfs`]/[`VfsFile`] abstract the
//! handful of filesystem operations the WAL, snapshot, database, and
//! on-disk sketch scan perform, [`StdVfs`] passes them straight through to
//! `std::fs`, and [`FaultVfs`] wraps any inner [`Vfs`] with a scripted,
//! seed-deterministic fault plan:
//!
//! * crash at the Nth mutation event (writes keep a seeded prefix — a torn
//!   write — and every later operation fails),
//! * fail the Nth data write (optionally after a short prefix lands),
//! * fail the Nth fsync (file or directory),
//! * ENOSPC once a cumulative byte budget is exhausted.
//!
//! On a simulated crash ([`FaultVfs::crash`] / [`FaultVfs::crash_worst_case`])
//! the wrapper applies a power-loss model to the real files: data synced
//! with `sync_data`/`sync_all` survives byte-for-byte; written-but-unsynced
//! suffixes survive only as a seeded prefix (possibly with one corrupted
//! byte — CRCs must catch it); file names created without a parent
//! directory fsync may vanish entirely; renames not followed by a directory
//! fsync may be undone. [`sweep_crash_points`] drives a whole workload
//! through this model, once per recorded event index; the store's and the
//! attribute store's crash-point tests are built on it.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// An open file handle behind a [`Vfs`].
///
/// Extends the std I/O traits with the durability operations the store
/// relies on. Implementations perform no buffering of their own: every
/// `write` reaches the (possibly simulated) file immediately, so "written
/// but not yet synced" is a well-defined state the fault model can target.
pub trait VfsFile: Read + Write + Seek + Send + Sync {
    /// Truncates or extends the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Flushes file *data* to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flushes file data and metadata to stable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem operations the persistence layer performs.
///
/// Implementations must be cheap to share across threads; the sharded
/// on-disk sketch scan opens one handle per worker through a shared `&dyn
/// Vfs`.
pub trait Vfs: Send + Sync {
    /// Opens an existing file read-only (`NotFound` if absent).
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens a file read-write, creating it if missing, never truncating.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates (truncating if present) a file for read-write access.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically renames `from` to `to`, replacing `to` if present.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs a directory, making recent creates/renames inside it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// True if `path` currently exists.
    fn exists(&self, path: &Path) -> bool;

    /// Reads a whole file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut file = self.open_read(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }
}

// ------------------------------------------------------------------ std --

/// Passthrough [`Vfs`] over `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

impl VfsFile for File {
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }
}

impl Vfs for StdVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(File::open(path)?))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(
            OpenOptions::new()
                .create(true)
                .read(true)
                .write(true)
                .truncate(false)
                .open(path)?,
        ))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(
            OpenOptions::new()
                .create(true)
                .read(true)
                .write(true)
                .truncate(true)
                .open(path)?,
        ))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------- faults --

/// Scripted fault plan for [`FaultVfs`]. All indices are 0-based and
/// counted across the lifetime of the wrapper, so a plan plus a seed
/// reproduces a failure exactly.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for every deterministic choice the fault model makes: torn
    /// write lengths, whether un-fsynced names and renames survive a
    /// crash, and unsynced-suffix corruption.
    pub seed: u64,
    /// Simulated power loss at this mutation-event index: a write keeps a
    /// seeded prefix of its bytes and fails; any other event fails without
    /// effect; every subsequent operation fails. Pair with
    /// [`FaultVfs::crash`] to apply the durability model before reopening.
    pub crash_at_event: Option<u64>,
    /// Fail the Nth data write with an injected error (not a crash:
    /// later operations proceed).
    pub fail_write: Option<u64>,
    /// How many bytes of a failing write still reach the file
    /// (`None`: seeded in `0..=len`).
    pub torn_write_keep: Option<usize>,
    /// Fail the Nth fsync — file or directory — with an injected error.
    /// The synced data stays volatile.
    pub fail_sync: Option<u64>,
    /// Cumulative data-write byte budget; the write that crosses it lands
    /// only up to the budget and fails with an ENOSPC-style error, as do
    /// all writes after it.
    pub byte_budget: Option<u64>,
}

impl FaultPlan {
    /// Plan that simulates a crash at mutation event `event`.
    pub fn crash_at(event: u64, seed: u64) -> Self {
        Self {
            seed,
            crash_at_event: Some(event),
            ..Self::default()
        }
    }

    /// Plan that fails the Nth data write (keeping no bytes).
    pub fn fail_nth_write(n: u64) -> Self {
        Self {
            fail_write: Some(n),
            torn_write_keep: Some(0),
            ..Self::default()
        }
    }

    /// Plan that fails the Nth fsync.
    pub fn fail_nth_sync(n: u64) -> Self {
        Self {
            fail_sync: Some(n),
            ..Self::default()
        }
    }

    /// Plan that exhausts space after `bytes` written.
    pub fn with_byte_budget(bytes: u64) -> Self {
        Self {
            byte_budget: Some(bytes),
            ..Self::default()
        }
    }
}

/// Kind of a recorded mutation event (the fault points a crash can target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoEventKind {
    /// `create_dir_all`.
    CreateDir,
    /// `create` (truncating create).
    Create,
    /// `open_rw` (may create).
    OpenRw,
    /// A data write to an open file.
    Write,
    /// `set_len` on an open file.
    SetLen,
    /// `sync_data` on an open file.
    SyncData,
    /// `sync_all` on an open file.
    SyncAll,
    /// `rename`.
    Rename,
    /// `remove_file`.
    Remove,
    /// `sync_dir`.
    SyncDir,
}

/// One recorded mutation event.
#[derive(Debug, Clone)]
pub struct IoEvent {
    /// What happened.
    pub kind: IoEventKind,
    /// The file (for renames: the destination).
    pub path: PathBuf,
    /// Payload size for writes/set_len, 0 otherwise.
    pub bytes: u64,
}

/// Returns true if `e` was injected by a [`FaultVfs`] plan rather than
/// produced by the real filesystem.
pub fn is_injected(e: &io::Error) -> bool {
    e.to_string().starts_with("injected fault")
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

/// SplitMix64: tiny deterministic RNG for the fault model (no external
/// dependency; statistical quality is irrelevant here, reproducibility is
/// everything).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 0
    }
}

/// A rename whose destination directory has not been fsynced yet: a crash
/// may undo it.
struct RenameRecord {
    from: PathBuf,
    to: PathBuf,
    /// Durable content `to` had before the rename (`None`: absent).
    old_to: Option<Vec<u8>>,
    /// Durable content of `from` at rename time (`None`: never synced).
    from_durable: Option<Vec<u8>>,
    /// True if `from`'s own directory entry was still volatile, in which
    /// case undoing the rename resurrects nothing.
    from_was_volatile: bool,
}

#[derive(Default)]
struct FaultState {
    plan: FaultPlan,
    events: Vec<IoEvent>,
    writes: u64,
    syncs: u64,
    bytes_written: u64,
    injected_faults: u64,
    crashed: bool,
    /// Last fsynced content per path — what a power loss preserves.
    durable: BTreeMap<PathBuf, Vec<u8>>,
    /// Every path opened for mutation through this VFS.
    tracked: std::collections::BTreeSet<PathBuf>,
    /// Created files whose directory entry is not fsynced yet.
    volatile_names: std::collections::BTreeSet<PathBuf>,
    /// Renames not yet made durable by a directory fsync, oldest first.
    renames: Vec<RenameRecord>,
}

enum WritePlan {
    All,
    Partial { keep: usize, error: io::Error },
}

impl FaultState {
    fn record(&mut self, kind: IoEventKind, path: &Path, bytes: u64) -> u64 {
        let idx = self.events.len() as u64;
        self.events.push(IoEvent {
            kind,
            path: path.to_path_buf(),
            bytes,
        });
        idx
    }

    /// Gate for every non-write mutation event.
    fn on_mutation(&mut self, kind: IoEventKind, path: &Path, bytes: u64) -> io::Result<()> {
        if self.crashed {
            return Err(injected("operation after simulated crash"));
        }
        let idx = self.record(kind, path, bytes);
        if self.plan.crash_at_event == Some(idx) {
            self.crashed = true;
            self.injected_faults += 1;
            return Err(injected("simulated crash"));
        }
        Ok(())
    }

    /// Gate for data writes; decides how many bytes actually land.
    fn on_write(&mut self, path: &Path, len: usize) -> WritePlan {
        if self.crashed {
            return WritePlan::Partial {
                keep: 0,
                error: injected("write after simulated crash"),
            };
        }
        let idx = self.record(IoEventKind::Write, path, len as u64);
        let mut rng = SplitMix64::new(self.plan.seed ^ idx.wrapping_mul(0xa076_1d64_78bd_642f));
        if self.plan.crash_at_event == Some(idx) {
            self.crashed = true;
            self.injected_faults += 1;
            let keep = rng.below(len as u64 + 1) as usize;
            return WritePlan::Partial {
                keep,
                error: injected("simulated crash during write"),
            };
        }
        let nth = self.writes;
        self.writes += 1;
        if self.plan.fail_write == Some(nth) {
            self.injected_faults += 1;
            let keep = self
                .plan
                .torn_write_keep
                .unwrap_or_else(|| rng.below(len as u64 + 1) as usize)
                .min(len);
            return WritePlan::Partial {
                keep,
                error: injected("write failure"),
            };
        }
        if let Some(budget) = self.plan.byte_budget {
            if self.bytes_written + len as u64 > budget {
                self.injected_faults += 1;
                let keep = (budget - self.bytes_written) as usize;
                self.bytes_written = budget;
                return WritePlan::Partial {
                    keep,
                    error: injected("no space left on device (byte budget)"),
                };
            }
        }
        self.bytes_written += len as u64;
        WritePlan::All
    }

    /// Gate for fsync events (file or directory).
    fn on_sync(&mut self, kind: IoEventKind, path: &Path) -> io::Result<()> {
        if self.crashed {
            return Err(injected("sync after simulated crash"));
        }
        let idx = self.record(kind, path, 0);
        if self.plan.crash_at_event == Some(idx) {
            self.crashed = true;
            self.injected_faults += 1;
            return Err(injected("simulated crash during sync"));
        }
        let nth = self.syncs;
        self.syncs += 1;
        if self.plan.fail_sync == Some(nth) {
            self.injected_faults += 1;
            return Err(injected("sync failure"));
        }
        Ok(())
    }
}

struct FaultShared {
    inner: Arc<dyn Vfs>,
    state: Mutex<FaultState>,
}

/// A [`Vfs`] wrapper injecting faults per a [`FaultPlan`] and simulating
/// power-loss crashes. Clone handles share all state; keep one clone
/// outside the store to drive [`FaultVfs::crash`] and inspect events.
#[derive(Clone)]
pub struct FaultVfs {
    shared: Arc<FaultShared>,
}

impl std::fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock();
        f.debug_struct("FaultVfs")
            .field("events", &st.events.len())
            .field("crashed", &st.crashed)
            .field("plan", &st.plan)
            .finish()
    }
}

impl FaultVfs {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Arc<dyn Vfs>, plan: FaultPlan) -> Self {
        Self {
            shared: Arc::new(FaultShared {
                inner,
                state: Mutex::new(FaultState {
                    plan,
                    ..FaultState::default()
                }),
            }),
        }
    }

    /// Number of mutation events recorded so far — the crash-point space a
    /// harness enumerates.
    pub fn fault_points(&self) -> u64 {
        self.shared.state.lock().events.len() as u64
    }

    /// A copy of the recorded mutation events.
    pub fn events(&self) -> Vec<IoEvent> {
        self.shared.state.lock().events.clone()
    }

    /// True if at least one fault from the plan fired.
    pub fn tripped(&self) -> bool {
        self.shared.state.lock().injected_faults > 0
    }

    /// Simulates power loss with seeded outcomes: unsynced data survives
    /// as a seeded prefix (occasionally with one flipped byte), un-fsynced
    /// file names and renames each survive on a seeded coin flip. All
    /// subsequent operations through this VFS fail; reopen the files with
    /// a fresh [`StdVfs`] to model the post-reboot process.
    pub fn crash(&self) -> io::Result<()> {
        self.apply_crash(false)
    }

    /// Simulates the most destructive legal power loss: every unsynced
    /// byte, un-fsynced name, and un-fsynced rename is lost.
    pub fn crash_worst_case(&self) -> io::Result<()> {
        self.apply_crash(true)
    }

    fn apply_crash(&self, worst_case: bool) -> io::Result<()> {
        let mut st = self.shared.state.lock();
        st.crashed = true;
        let mut rng = SplitMix64::new(st.plan.seed ^ 0x5bf0_3635_37da_4f2b);
        let inner = Arc::clone(&self.shared.inner);
        let write_file = |path: &Path, bytes: &[u8]| -> io::Result<()> {
            let mut f = inner.create(path)?;
            // ferret-lint: allow(guard-across-io) -- crash simulation rewrites files under the state lock on purpose: the whole crash must be atomic w.r.t. other fault-injected ops
            f.write_all(bytes)
        };
        // 1. Un-fsynced renames may be undone, newest first so chains of
        //    renames over the same destination unwind correctly.
        let renames: Vec<RenameRecord> = st.renames.drain(..).collect();
        for r in renames.iter().rev() {
            let survive = !worst_case && rng.coin();
            if survive {
                continue;
            }
            match &r.old_to {
                Some(bytes) => {
                    write_file(&r.to, bytes)?;
                    st.durable.insert(r.to.clone(), bytes.clone());
                }
                None => {
                    // ferret-lint: allow(guard-across-io) -- part of the atomic crash simulation; see write_file above
                    let _ = inner.remove_file(&r.to);
                    st.durable.remove(&r.to);
                }
            }
            if !r.from_was_volatile {
                if let Some(bytes) = &r.from_durable {
                    write_file(&r.from, bytes)?;
                    st.durable.insert(r.from.clone(), bytes.clone());
                }
            }
        }
        // 2. Created files whose directory entry was never fsynced may
        //    vanish entirely — even if their *content* was fsynced.
        let volatile: Vec<PathBuf> = st.volatile_names.iter().cloned().collect();
        for path in volatile {
            let survive = !worst_case && rng.coin();
            if !survive {
                // ferret-lint: allow(guard-across-io) -- part of the atomic crash simulation; see write_file above
                let _ = inner.remove_file(&path);
                st.durable.remove(&path);
            }
        }
        st.volatile_names.clear();
        // 3. Unsynced content survives only as a seeded prefix beyond the
        //    last synced image; occasionally one surviving unsynced byte is
        //    corrupted (CRCs must catch it). Divergent content (e.g. an
        //    unsynced truncate) reverts to the synced image.
        let tracked: Vec<PathBuf> = st.tracked.iter().cloned().collect();
        for path in tracked {
            if !inner.exists(&path) {
                continue;
            }
            let dur = st.durable.get(&path).cloned().unwrap_or_default();
            let real = inner.read(&path)?;
            if real == dur {
                continue;
            }
            let new = if real.len() > dur.len() && real[..dur.len()] == dur[..] {
                if worst_case {
                    dur.clone()
                } else {
                    let extra = (real.len() - dur.len()) as u64;
                    let keep = dur.len() + rng.below(extra + 1) as usize;
                    let mut out = real[..keep].to_vec();
                    if keep > dur.len() && rng.below(4) == 0 {
                        let i = dur.len() + rng.below((keep - dur.len()) as u64) as usize;
                        out[i] ^= 0x40;
                    }
                    out
                }
            } else {
                dur.clone()
            };
            write_file(&path, &new)?;
        }
        Ok(())
    }

    /// Seeds the durable image for a path opened for mutation: content
    /// that existed before this VFS session is assumed durable.
    fn track_existing(&self, st: &mut FaultState, path: &Path) -> io::Result<()> {
        st.tracked.insert(path.to_path_buf());
        if self.shared.inner.exists(path) {
            if !st.durable.contains_key(path) && !st.volatile_names.contains(path) {
                let content = self.shared.inner.read(path)?;
                st.durable.insert(path.to_path_buf(), content);
            }
        } else {
            st.volatile_names.insert(path.to_path_buf());
        }
        Ok(())
    }
}

impl Vfs for FaultVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.shared.state.lock().crashed {
            return Err(injected("read after simulated crash"));
        }
        self.shared.inner.open_read(path)
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        {
            let mut st = self.shared.state.lock();
            st.on_mutation(IoEventKind::OpenRw, path, 0)?;
            self.track_existing(&mut st, path)?;
        }
        let file = self.shared.inner.open_rw(path)?;
        Ok(Box::new(FaultFile {
            shared: Arc::clone(&self.shared),
            inner: file,
            path: path.to_path_buf(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        {
            let mut st = self.shared.state.lock();
            st.on_mutation(IoEventKind::Create, path, 0)?;
            // Capture the pre-truncate durable image: a crash after an
            // unsynced truncating create restores the old content.
            self.track_existing(&mut st, path)?;
        }
        let file = self.shared.inner.create(path)?;
        Ok(Box::new(FaultFile {
            shared: Arc::clone(&self.shared),
            inner: file,
            path: path.to_path_buf(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.shared.state.lock();
        st.on_mutation(IoEventKind::Rename, to, 0)?;
        let old_to = if self.shared.inner.exists(to) {
            Some(match st.durable.get(to) {
                Some(bytes) => bytes.clone(),
                None => self.shared.inner.read(to)?,
            })
        } else {
            None
        };
        let from_durable = match st.durable.remove(from) {
            Some(bytes) => Some(bytes),
            None => self.shared.inner.read(from).ok(),
        };
        let from_was_volatile = st.volatile_names.remove(from);
        // ferret-lint: allow(guard-across-io) -- FaultVfs performs the delegated I/O under its state lock so the recorded fault schedule and the real filesystem mutate atomically
        self.shared.inner.rename(from, to)?;
        st.tracked.insert(to.to_path_buf());
        st.durable
            .insert(to.to_path_buf(), from_durable.clone().unwrap_or_default());
        st.renames.push(RenameRecord {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            old_to,
            from_durable,
            from_was_volatile,
        });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.shared.state.lock();
        st.on_mutation(IoEventKind::Remove, path, 0)?;
        // ferret-lint: allow(guard-across-io) -- delegated I/O under the state lock keeps fault bookkeeping atomic; see rename above
        self.shared.inner.remove_file(path)?;
        // Removal is modelled as immediately durable (nothing in the
        // store's recovery path depends on a remove being undone).
        st.durable.remove(path);
        st.volatile_names.remove(path);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = self.shared.state.lock();
        st.on_mutation(IoEventKind::CreateDir, path, 0)?;
        // ferret-lint: allow(guard-across-io) -- delegated I/O under the state lock keeps fault bookkeeping atomic; see rename above
        self.shared.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let mut st = self.shared.state.lock();
        st.on_sync(IoEventKind::SyncDir, path)?;
        // ferret-lint: allow(guard-across-io) -- delegated I/O under the state lock keeps fault bookkeeping atomic; see rename above
        self.shared.inner.sync_dir(path)?;
        st.volatile_names.retain(|p| p.parent() != Some(path));
        st.renames.retain(|r| r.to.parent() != Some(path));
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.shared.inner.exists(path)
    }
}

/// File handle produced by [`FaultVfs`].
struct FaultFile {
    shared: Arc<FaultShared>,
    inner: Box<dyn VfsFile>,
    path: PathBuf,
}

impl Read for FaultFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.shared.state.lock().crashed {
            return Err(injected("read after simulated crash"));
        }
        self.inner.read(buf)
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let plan = self.shared.state.lock().on_write(&self.path, buf.len());
        match plan {
            WritePlan::All => {
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            WritePlan::Partial { keep, error } => {
                if keep > 0 {
                    let _ = self.inner.write_all(&buf[..keep]);
                }
                Err(error)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.shared.state.lock().crashed {
            return Err(injected("flush after simulated crash"));
        }
        self.inner.flush()
    }
}

impl Seek for FaultFile {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        if self.shared.state.lock().crashed {
            return Err(injected("seek after simulated crash"));
        }
        self.inner.seek(pos)
    }
}

impl VfsFile for FaultFile {
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.shared
            .state
            .lock()
            .on_mutation(IoEventKind::SetLen, &self.path, len)?;
        self.inner.set_len(len)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.mark_durable(IoEventKind::SyncData)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.mark_durable(IoEventKind::SyncAll)
    }
}

impl FaultFile {
    fn mark_durable(&mut self, kind: IoEventKind) -> io::Result<()> {
        self.shared.state.lock().on_sync(kind, &self.path)?;
        match kind {
            IoEventKind::SyncData => self.inner.sync_data()?,
            _ => self.inner.sync_all()?,
        }
        // Everything written so far is now durable: snapshot the real
        // content as the post-crash floor for this file.
        let content = self.shared.inner.read(&self.path)?;
        self.shared
            .state
            .lock()
            .durable
            .insert(self.path.clone(), content);
        Ok(())
    }
}

// ----------------------------------------------------------------- sweep --

/// One replay of a crash-point sweep: a simulated power loss at mutation
/// event `event`, under the seeded or the worst-case crash model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The mutation-event index the power loss hits.
    pub event: u64,
    /// True for [`FaultVfs::crash_worst_case`], false for [`FaultVfs::crash`].
    pub worst_case: bool,
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point {} worst={}", self.event, self.worst_case)
    }
}

/// The crash-point harness: runs `workload` once per mutation event it
/// performs, with a power loss at that event, and hands every crashed
/// directory to `check`.
///
/// Pass 1 runs `workload` under a no-fault [`FaultVfs`] in `<base>/clean`
/// and calls `check` with no crash point; its recorded events are the
/// crash-point space. Pass 2 replays `workload` once per event index and
/// crash model, each in a fresh directory under `base`, over
/// [`FaultPlan::crash_at`] that index (seeded from `seed`, the index and
/// the model), applies the model, and calls `check` with the crash point,
/// the directory and the workload's outcome; `check` reopens the directory
/// and asserts on what was recovered. Every directory is removed after its
/// check. Returns the number of crash points per model.
///
/// Panics if the fault-free run injects a fault, if a replay's fault never
/// fires, or if a crash model cannot be applied.
pub fn sweep_crash_points<T>(
    base: &Path,
    seed: u64,
    mut workload: impl FnMut(Arc<dyn Vfs>, &Path) -> T,
    mut check: impl FnMut(Option<CrashPoint>, &Path, T),
) -> u64 {
    let fault = FaultVfs::new(Arc::new(StdVfs), FaultPlan::default());
    let clean = base.join("clean");
    let outcome = workload(Arc::new(fault.clone()), &clean);
    // Events emitted while the workload drops its store (buffered records
    // flushed on drop) are counted too: the workload has returned.
    let events = fault.fault_points();
    assert!(!fault.tripped(), "the fault-free run injected a fault");
    check(None, &clean, outcome);
    std::fs::remove_dir_all(&clean).ok();
    for event in 0..events {
        for worst_case in [false, true] {
            let point = CrashPoint { event, worst_case };
            let dir = base.join(format!("p{event}-{}", u8::from(worst_case)));
            let plan = FaultPlan::crash_at(event, seed ^ (event << 1) ^ u64::from(worst_case));
            let fault = FaultVfs::new(Arc::new(StdVfs), plan);
            let outcome = workload(Arc::new(fault.clone()), &dir);
            assert!(fault.tripped(), "{point}: no injected fault");
            let crashed = if worst_case {
                fault.crash_worst_case()
            } else {
                fault.crash()
            };
            assert!(crashed.is_ok(), "{point}: crash model failed: {crashed:?}");
            check(Some(point), &dir, outcome);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::SeekFrom;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ferret-vfs-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fault_over(dir: &Path, plan: FaultPlan) -> FaultVfs {
        let _ = dir; // the inner StdVfs works on absolute paths
        FaultVfs::new(Arc::new(StdVfs), plan)
    }

    #[test]
    fn std_vfs_roundtrip_and_rename() {
        let dir = tmpdir("std");
        let vfs = StdVfs;
        let a = dir.join("a");
        let b = dir.join("b");
        {
            let mut f = vfs.create(&a).unwrap();
            f.write_all(b"hello").unwrap();
            f.sync_all().unwrap();
        }
        assert_eq!(vfs.read(&a).unwrap(), b"hello");
        vfs.rename(&a, &b).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert!(!vfs.exists(&a));
        assert_eq!(vfs.read(&b).unwrap(), b"hello");
        {
            let mut f = vfs.open_rw(&b).unwrap();
            f.seek(SeekFrom::End(0)).unwrap();
            f.write_all(b" world").unwrap();
            f.set_len(5).unwrap();
            f.sync_data().unwrap();
        }
        assert_eq!(vfs.read(&b).unwrap(), b"hello");
        vfs.remove_file(&b).unwrap();
        assert!(vfs.open_read(&b).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fail_nth_write_is_injected_once() {
        let dir = tmpdir("failwrite");
        let vfs = fault_over(&dir, FaultPlan::fail_nth_write(1));
        let path = dir.join("f");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"one").unwrap();
        let err = f.write_all(b"two").unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert!(vfs.tripped());
        // Not a crash: later writes succeed.
        f.write_all(b"three").unwrap();
        f.sync_data().unwrap();
        assert_eq!(StdVfs.read(&path).unwrap(), b"onethree");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_gives_enospc_with_partial_write() {
        let dir = tmpdir("budget");
        let vfs = fault_over(&dir, FaultPlan::with_byte_budget(5));
        let path = dir.join("f");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"abc").unwrap();
        let err = f.write_all(b"defgh").unwrap_err();
        assert!(err.to_string().contains("no space"), "{err}");
        // Partial prefix landed, later writes keep failing.
        assert_eq!(StdVfs.read(&path).unwrap(), b"abcde");
        assert!(f.write_all(b"x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_at_event_halts_everything_after() {
        let dir = tmpdir("crashat");
        let vfs = fault_over(&dir, FaultPlan::crash_at(2, 7));
        let path = dir.join("f");
        // Event 0: create. Event 1: write. Event 2: sync → crash.
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"data").unwrap();
        let err = f.sync_data().unwrap_err();
        assert!(is_injected(&err));
        assert!(vfs.create(&dir.join("g")).is_err());
        assert!(vfs.open_read(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worst_case_crash_drops_unsynced_data_and_names() {
        let dir = tmpdir("worst");
        let vfs = fault_over(&dir, FaultPlan::default());
        let synced = dir.join("synced");
        let unsynced_name = dir.join("ghost");
        {
            let mut f = vfs.create(&synced).unwrap();
            f.write_all(b"keep").unwrap();
            f.sync_all().unwrap();
            // Name made durable.
            vfs.sync_dir(&dir).unwrap();
            // Unsynced suffix after the sync.
            f.write_all(b"-lost").unwrap();
        }
        {
            // Content synced but the *name* never was: the file itself is
            // legal to lose (the missing-dir-fsync failure mode).
            let mut f = vfs.create(&unsynced_name).unwrap();
            f.write_all(b"contents").unwrap();
            f.sync_all().unwrap();
        }
        vfs.crash_worst_case().unwrap();
        assert_eq!(StdVfs.read(&synced).unwrap(), b"keep");
        assert!(!StdVfs.exists(&unsynced_name), "un-fsynced name survived");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_crash_keeps_prefix_of_unsynced_suffix() {
        let dir = tmpdir("seeded");
        for seed in 0..16u64 {
            let path = dir.join(format!("f{seed}"));
            let vfs = fault_over(
                &dir,
                FaultPlan {
                    seed,
                    ..FaultPlan::default()
                },
            );
            {
                let mut f = vfs.create(&path).unwrap();
                f.write_all(b"durable|").unwrap();
                f.sync_all().unwrap();
                vfs.sync_dir(&dir).unwrap();
                f.write_all(b"maybe").unwrap();
            }
            vfs.crash().unwrap();
            let got = StdVfs.read(&path).unwrap();
            // The synced prefix always survives; the unsynced suffix is a
            // prefix of "maybe", possibly with one corrupted byte.
            assert!(got.len() >= 8 && got.len() <= 13, "{got:?}");
            assert_eq!(&got[..8], b"durable|");
            let suffix = &got[8..];
            let diff = suffix
                .iter()
                .zip(b"maybe".iter())
                .filter(|(a, b)| a != b)
                .count();
            assert!(diff <= 1, "more than one corrupted byte: {got:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worst_case_crash_undoes_unsynced_rename() {
        let dir = tmpdir("rename");
        let vfs = fault_over(&dir, FaultPlan::default());
        let target = dir.join("t");
        let tmp = dir.join("t.tmp");
        {
            let mut f = vfs.create(&target).unwrap();
            f.write_all(b"old").unwrap();
            f.sync_all().unwrap();
        }
        vfs.sync_dir(&dir).unwrap();
        {
            let mut f = vfs.create(&tmp).unwrap();
            f.write_all(b"new").unwrap();
            f.sync_all().unwrap();
        }
        vfs.rename(&tmp, &target).unwrap();
        // No sync_dir: the rename is legal to lose.
        vfs.crash_worst_case().unwrap();
        assert_eq!(StdVfs.read(&target).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synced_rename_survives_worst_case() {
        let dir = tmpdir("rename-sync");
        let vfs = fault_over(&dir, FaultPlan::default());
        let target = dir.join("t");
        let tmp = dir.join("t.tmp");
        {
            let mut f = vfs.create(&target).unwrap();
            f.write_all(b"old").unwrap();
            f.sync_all().unwrap();
        }
        vfs.sync_dir(&dir).unwrap();
        {
            let mut f = vfs.create(&tmp).unwrap();
            f.write_all(b"new").unwrap();
            f.sync_all().unwrap();
        }
        vfs.rename(&tmp, &target).unwrap();
        vfs.sync_dir(&dir).unwrap();
        vfs.crash_worst_case().unwrap();
        assert_eq!(StdVfs.read(&target).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fail_nth_sync_leaves_data_volatile() {
        let dir = tmpdir("failsync");
        let vfs = fault_over(&dir, FaultPlan::fail_nth_sync(0));
        let path = dir.join("f");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"data").unwrap();
        assert!(f.sync_data().is_err());
        drop(f);
        vfs.crash_worst_case().unwrap();
        // The failed sync made nothing durable; worst case loses the file
        // (name never fsynced either).
        assert!(!StdVfs.exists(&path));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_are_recorded_in_order() {
        let dir = tmpdir("events");
        let vfs = fault_over(&dir, FaultPlan::default());
        let path = dir.join("f");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_data().unwrap();
        drop(f);
        vfs.sync_dir(&dir).unwrap();
        let kinds: Vec<IoEventKind> = vfs.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                IoEventKind::Create,
                IoEventKind::Write,
                IoEventKind::SyncData,
                IoEventKind::SyncDir,
            ]
        );
        assert_eq!(vfs.fault_points(), 4);
        assert!(!vfs.tripped());
        std::fs::remove_dir_all(&dir).ok();
    }
}
