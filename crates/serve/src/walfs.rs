//! Pluggable filesystem behind the write-ahead log.
//!
//! The WAL never touches `std::fs` directly: every directory scan, append,
//! fsync, rename, and truncate goes through the [`WalFs`] / [`WalFile`]
//! trait objects. Production uses [`StdFs`] (a thin veneer over `std::fs`);
//! the crash-recovery test matrix uses [`FaultFs`], a deterministic
//! in-memory filesystem that injects torn writes, short reads, bit flips,
//! and fsync failures at seeded byte offsets — so every recovery path in
//! `wal.rs` is exercised without flaky real-disk corruption tricks.
//!
//! Fault semantics follow real crash behaviour:
//!
//! - A **torn write** (`set_crash_after_write_bytes`) lands the allowed
//!   prefix of the write, then fails that write and every later operation
//!   until [`FaultFs::reset_faults`] models the reboot.
//! - A **failed fsync** (`fail_fsync`) can optionally roll the file back to
//!   its last successfully synced length — the bytes the page cache never
//!   made durable.
//! - A **bit flip** (`corrupt`) XORs one byte in place: sealed-segment
//!   corruption that recovery must refuse to read past.
//! - A **short read** (`set_short_read`) caps how much of a file `read`
//!   returns, modelling a truncated manifest or snapshot.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One open, append-only file handle.
pub trait WalFile: Send + Debug {
    /// Appends `buf` at the end of the file.
    ///
    /// # Errors
    /// I/O failures (including injected torn writes).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flushes written data to durable storage.
    ///
    /// # Errors
    /// I/O failures (including injected fsync failures).
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The filesystem surface the WAL needs.
pub trait WalFs: Send + Sync + Debug {
    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    /// I/O failures.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads a whole file.
    ///
    /// # Errors
    /// I/O failures (including injected short reads).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Atomically renames `from` to `to` (same directory).
    ///
    /// # Errors
    /// I/O failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Deletes a file.
    ///
    /// # Errors
    /// I/O failures.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// File names (not paths) directly inside `dir`, sorted.
    ///
    /// # Errors
    /// I/O failures.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Truncates the file at `path` to `len` bytes.
    ///
    /// # Errors
    /// I/O failures.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Opens `path` for appending, creating it if missing.
    ///
    /// # Errors
    /// I/O failures.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;

    /// Creates (truncating) `path` for writing.
    ///
    /// # Errors
    /// I/O failures.
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

#[derive(Debug)]
struct StdFile(std::fs::File);

impl WalFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl WalFs for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        std::fs::OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        let f = std::fs::OpenOptions::new().append(true).create(true).open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(StdFile(std::fs::File::create(path)?)))
    }
}

/// Per-file state in the in-memory store.
#[derive(Debug, Default, Clone)]
struct FileState {
    data: Vec<u8>,
    /// Length last made durable by a successful `sync_data`.
    synced_len: usize,
    /// `sync_data` calls that reached this file, injected failures
    /// included.
    syncs: u64,
    /// Whole-file `read` calls that reached this file.
    reads: u64,
}

/// Seeded fault plan shared by every handle cloned from one [`FaultFs`].
#[derive(Debug, Default)]
struct FaultPlan {
    /// Remaining write budget in bytes; a write that would exceed it lands
    /// only its allowed prefix and trips the crashed state.
    write_budget: Option<u64>,
    /// 1-based index of the next `sync_data` call that fails (one-shot).
    fail_fsync_at: Option<u64>,
    /// On a failed fsync, roll the file back to its last synced length.
    drop_unsynced_on_fsync_fail: bool,
    /// Per-path cap on how many bytes `read` returns.
    short_reads: BTreeMap<PathBuf, usize>,
    /// `sync_data` calls seen so far (for `fail_fsync_at`).
    fsyncs_seen: u64,
    /// Set once a torn write fires: every later operation fails until
    /// `reset_faults` models the reboot.
    crashed: bool,
}

#[derive(Debug, Default)]
struct FaultStore {
    files: BTreeMap<PathBuf, FileState>,
    plan: FaultPlan,
}

/// A deterministic in-memory filesystem with seeded fault injection.
///
/// Clones share the same store: create one, hand a clone to the WAL, and
/// keep the original to arm faults and inspect state from the test.
#[derive(Debug, Clone, Default)]
pub struct FaultFs {
    store: Arc<Mutex<FaultStore>>,
}

/// Locks the store, recovering from poisoning (a panicking test thread
/// must not wedge every sibling handle).
fn lock(store: &Mutex<FaultStore>) -> MutexGuard<'_, FaultStore> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

fn crashed_err() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "injected crash: filesystem is down")
}

fn missing_err(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", path.display()))
}

impl FaultFs {
    /// An empty store with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a torn write: after `budget` more bytes land, the write in
    /// flight is cut short and the filesystem enters the crashed state.
    pub fn set_crash_after_write_bytes(&self, budget: u64) {
        lock(&self.store).plan.write_budget = Some(budget);
    }

    /// Arms the `nth` (1-based, counted from now) `sync_data` call to
    /// fail. When `drop_unsynced` is set, the failing file also rolls back
    /// to its last synced length — the unflushed page-cache suffix is lost.
    pub fn fail_fsync(&self, nth: u64, drop_unsynced: bool) {
        let mut store = lock(&self.store);
        store.plan.fsyncs_seen = 0;
        store.plan.fail_fsync_at = Some(nth);
        store.plan.drop_unsynced_on_fsync_fail = drop_unsynced;
    }

    /// Caps `read(path)` to its first `len` bytes (a truncated read).
    pub fn set_short_read(&self, path: &Path, len: usize) {
        lock(&self.store).plan.short_reads.insert(path.to_path_buf(), len);
    }

    /// XORs the byte at `offset` in `path` with `0x01` (a bit flip).
    ///
    /// # Errors
    /// `NotFound` for a missing file, `InvalidInput` for an offset past
    /// the end.
    pub fn corrupt(&self, path: &Path, offset: usize) -> io::Result<()> {
        let mut store = lock(&self.store);
        let file = store.files.get_mut(path).ok_or_else(|| missing_err(path))?;
        match file.data.get_mut(offset) {
            Some(byte) => {
                *byte ^= 0x01;
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("corrupt offset {offset} past end of {}", path.display()),
            )),
        }
    }

    /// Clears every armed fault and the crashed state — the reboot after
    /// the injected crash. File contents are untouched: whatever survived
    /// the crash is what recovery gets to see.
    pub fn reset_faults(&self) {
        lock(&self.store).plan = FaultPlan::default();
    }

    /// Whether an injected crash has fired.
    pub fn crashed(&self) -> bool {
        lock(&self.store).plan.crashed
    }

    /// Current contents of `path` (`None` when missing).
    pub fn dump(&self, path: &Path) -> Option<Vec<u8>> {
        lock(&self.store).files.get(path).map(|f| f.data.clone())
    }

    /// Current length of `path` (`None` when missing).
    pub fn len(&self, path: &Path) -> Option<usize> {
        lock(&self.store).files.get(path).map(|f| f.data.len())
    }

    /// `sync_data` calls that reached `path` since it was created,
    /// injected failures included (0 when missing).
    pub fn syncs(&self, path: &Path) -> u64 {
        lock(&self.store).files.get(path).map_or(0, |f| f.syncs)
    }

    /// Whole-file `read` calls that reached `path` since it was created
    /// (0 when missing).
    pub fn reads(&self, path: &Path) -> u64 {
        lock(&self.store).files.get(path).map_or(0, |f| f.reads)
    }

    /// Truncates `path` to `len` without going through the fault plan, for
    /// tests that build a crash scene byte-by-byte.
    pub fn truncate_raw(&self, path: &Path, len: usize) {
        let mut store = lock(&self.store);
        if let Some(file) = store.files.get_mut(path) {
            file.data.truncate(len);
            file.synced_len = file.synced_len.min(len);
        }
    }
}

/// A handle into the shared [`FaultFs`] store.
#[derive(Debug)]
struct FaultFile {
    store: Arc<Mutex<FaultStore>>,
    path: PathBuf,
}

impl WalFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut store = lock(&self.store);
        if store.plan.crashed {
            return Err(crashed_err());
        }
        let allowed = match store.plan.write_budget {
            Some(budget) => {
                let len = buf.len() as u64;
                if budget < len {
                    // Torn write: land the prefix, then crash.
                    store.plan.write_budget = Some(0);
                    store.plan.crashed = true;
                    usize::try_from(budget).unwrap_or(usize::MAX)
                } else {
                    store.plan.write_budget = budget.checked_sub(len);
                    buf.len()
                }
            }
            None => buf.len(),
        };
        let torn = allowed < buf.len();
        let file = store.files.entry(self.path.clone()).or_default();
        file.data.extend_from_slice(buf.get(..allowed).unwrap_or(buf));
        if torn {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected torn write after {allowed} of {} bytes", buf.len()),
            ));
        }
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut store = lock(&self.store);
        if store.plan.crashed {
            return Err(crashed_err());
        }
        store.plan.fsyncs_seen = store.plan.fsyncs_seen.saturating_add(1);
        if let Some(file) = store.files.get_mut(&self.path) {
            file.syncs = file.syncs.saturating_add(1);
        }
        if store.plan.fail_fsync_at == Some(store.plan.fsyncs_seen) {
            store.plan.fail_fsync_at = None;
            let drop_unsynced = store.plan.drop_unsynced_on_fsync_fail;
            if drop_unsynced {
                if let Some(file) = store.files.get_mut(&self.path) {
                    let synced = file.synced_len;
                    file.data.truncate(synced);
                }
            }
            return Err(io::Error::other("injected fsync failure"));
        }
        if let Some(file) = store.files.get_mut(&self.path) {
            file.synced_len = file.data.len();
        }
        Ok(())
    }
}

impl WalFs for FaultFs {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        // Directories are implicit in the in-memory store.
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut store = lock(&self.store);
        if store.plan.crashed {
            return Err(crashed_err());
        }
        let cap = store.plan.short_reads.get(path).copied().unwrap_or(usize::MAX);
        let file = store.files.get_mut(path).ok_or_else(|| missing_err(path))?;
        file.reads = file.reads.saturating_add(1);
        Ok(file.data.get(..cap.min(file.data.len())).unwrap_or(&file.data).to_vec())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut store = lock(&self.store);
        if store.plan.crashed {
            return Err(crashed_err());
        }
        let file = store.files.remove(from).ok_or_else(|| missing_err(from))?;
        store.files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut store = lock(&self.store);
        if store.plan.crashed {
            return Err(crashed_err());
        }
        store.files.remove(path).map(|_| ()).ok_or_else(|| missing_err(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let store = lock(&self.store);
        if store.plan.crashed {
            return Err(crashed_err());
        }
        // BTreeMap iteration order makes the listing deterministic.
        let names = store
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
            .collect();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        lock(&self.store).files.contains_key(path)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut store = lock(&self.store);
        if store.plan.crashed {
            return Err(crashed_err());
        }
        let file = store.files.get_mut(path).ok_or_else(|| missing_err(path))?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        file.data.truncate(len);
        file.synced_len = file.synced_len.min(len);
        Ok(())
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        let mut store = lock(&self.store);
        if store.plan.crashed {
            return Err(crashed_err());
        }
        store.files.entry(path.to_path_buf()).or_default();
        Ok(Box::new(FaultFile { store: Arc::clone(&self.store), path: path.to_path_buf() }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        let mut store = lock(&self.store);
        if store.plan.crashed {
            return Err(crashed_err());
        }
        store.files.insert(path.to_path_buf(), FileState::default());
        Ok(Box::new(FaultFile { store: Arc::clone(&self.store), path: path.to_path_buf() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathBuf {
        PathBuf::from("/wal").join(name)
    }

    #[test]
    fn write_read_roundtrip_and_listing() {
        let fs = FaultFs::new();
        let mut f = fs.create(&p("b.seg")).unwrap();
        f.write_all(b"hello").unwrap();
        f.write_all(b" world").unwrap();
        let mut g = fs.create(&p("a.seg")).unwrap();
        g.write_all(b"x").unwrap();
        assert_eq!(fs.read(&p("b.seg")).unwrap(), b"hello world");
        assert_eq!(fs.list(Path::new("/wal")).unwrap(), vec!["a.seg", "b.seg"]);
        fs.rename(&p("a.seg"), &p("c.seg")).unwrap();
        assert!(!fs.exists(&p("a.seg")));
        assert!(fs.exists(&p("c.seg")));
        fs.remove_file(&p("c.seg")).unwrap();
        assert!(fs.read(&p("c.seg")).is_err());
    }

    #[test]
    fn torn_write_lands_the_prefix_then_crashes() {
        let fs = FaultFs::new();
        let mut f = fs.create(&p("w.seg")).unwrap();
        f.write_all(b"abcd").unwrap();
        fs.set_crash_after_write_bytes(3);
        let err = f.write_all(b"efgh").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(fs.crashed());
        // Further I/O fails until the reboot.
        assert!(f.write_all(b"x").is_err());
        assert!(fs.read(&p("w.seg")).is_err());
        fs.reset_faults();
        assert_eq!(fs.read(&p("w.seg")).unwrap(), b"abcdefg");
    }

    #[test]
    fn budget_spanning_multiple_writes() {
        let fs = FaultFs::new();
        fs.set_crash_after_write_bytes(5);
        let mut f = fs.create(&p("w.seg")).unwrap();
        f.write_all(b"abc").unwrap(); // 3 of 5
        f.write_all(b"de").unwrap(); // 5 of 5: exactly fits
        assert!(f.write_all(b"f").is_err()); // torn at 0 extra bytes
        fs.reset_faults();
        assert_eq!(fs.read(&p("w.seg")).unwrap(), b"abcde");
    }

    #[test]
    fn fsync_failure_can_drop_the_unsynced_suffix() {
        let fs = FaultFs::new();
        let mut f = fs.create(&p("w.seg")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap();
        f.write_all(b" volatile").unwrap();
        fs.fail_fsync(1, true);
        assert!(f.sync_data().is_err());
        assert_eq!(fs.read(&p("w.seg")).unwrap(), b"durable");
        // The next fsync succeeds again (one-shot fault).
        f.write_all(b"!").unwrap();
        f.sync_data().unwrap();
        assert_eq!(fs.read(&p("w.seg")).unwrap(), b"durable!");
    }

    #[test]
    fn bit_flip_and_short_read() {
        let fs = FaultFs::new();
        let mut f = fs.create(&p("w.seg")).unwrap();
        f.write_all(b"abcdef").unwrap();
        fs.corrupt(&p("w.seg"), 2).unwrap();
        assert_eq!(fs.read(&p("w.seg")).unwrap(), b"ab\x62def");
        assert!(fs.corrupt(&p("w.seg"), 99).is_err());
        fs.set_short_read(&p("w.seg"), 4);
        assert_eq!(fs.read(&p("w.seg")).unwrap().len(), 4);
    }

    #[test]
    fn set_len_truncates_and_clamps_synced_len() {
        let fs = FaultFs::new();
        let mut f = fs.create(&p("w.seg")).unwrap();
        f.write_all(b"0123456789").unwrap();
        f.sync_data().unwrap();
        fs.set_len(&p("w.seg"), 4).unwrap();
        assert_eq!(fs.read(&p("w.seg")).unwrap(), b"0123");
        // A later failed fsync with rollback must not resurrect bytes.
        f.write_all(b"ab").unwrap();
        fs.fail_fsync(1, true);
        assert!(f.sync_data().is_err());
        assert_eq!(fs.read(&p("w.seg")).unwrap(), b"0123");
    }

    #[test]
    fn clones_share_the_store() {
        let fs = FaultFs::new();
        let fs2 = fs.clone();
        let mut f = fs.create(&p("w.seg")).unwrap();
        f.write_all(b"shared").unwrap();
        assert_eq!(fs2.read(&p("w.seg")).unwrap(), b"shared");
    }
}
