//! A [`Storage`] over [`LocalDisk`] that times and counts every call, so
//! storage time can be split from the decode and encode work of the
//! layers above it without touching `cdms`.

use crate::trace;
use cdms::storage::{LocalDisk, Storage};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative storage counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageCounts {
    pub read_calls: u64,
    pub read_bytes: u64,
    pub write_calls: u64,
    pub write_bytes: u64,
    pub fsync_calls: u64,
}

impl StorageCounts {
    pub fn since(self, before: StorageCounts) -> StorageCounts {
        StorageCounts {
            read_calls: self.read_calls - before.read_calls,
            read_bytes: self.read_bytes - before.read_bytes,
            write_calls: self.write_calls - before.write_calls,
            write_bytes: self.write_bytes - before.write_bytes,
            fsync_calls: self.fsync_calls - before.fsync_calls,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
    write_calls: AtomicU64,
    write_bytes: AtomicU64,
    fsync_calls: AtomicU64,
}

/// Local disk, timed. Reads (`read`, `read_at`) are traced as
/// `cdms.storage.read`; `write_all`, `rename` and `remove` as
/// `cdms.storage.write`; `sync` and `sync_dir` as `cdms.storage.fsync`.
#[derive(Debug, Clone, Default)]
pub struct TimedStorage {
    counters: Arc<Counters>,
}

fn add(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

impl TimedStorage {
    pub fn counts(&self) -> StorageCounts {
        let c = &self.counters;
        StorageCounts {
            read_calls: c.read_calls.load(Ordering::Relaxed),
            read_bytes: c.read_bytes.load(Ordering::Relaxed),
            write_calls: c.write_calls.load(Ordering::Relaxed),
            write_bytes: c.write_bytes.load(Ordering::Relaxed),
            fsync_calls: c.fsync_calls.load(Ordering::Relaxed),
        }
    }

    fn read_done(&self, out: &cdms::Result<Vec<u8>>) {
        add(&self.counters.read_calls, 1);
        if let Ok(bytes) = out {
            add(&self.counters.read_bytes, bytes.len() as u64);
        }
    }
}

impl Storage for TimedStorage {
    fn read(&self, path: &Path) -> cdms::Result<Vec<u8>> {
        let _s = trace::span("cdms.storage.read");
        let out = LocalDisk.read(path);
        self.read_done(&out);
        out
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> cdms::Result<Vec<u8>> {
        let _s = trace::span("cdms.storage.read");
        let out = LocalDisk.read_at(path, offset, len);
        self.read_done(&out);
        out
    }

    fn write_all(&self, path: &Path, bytes: &[u8]) -> cdms::Result<()> {
        let _s = trace::span("cdms.storage.write");
        add(&self.counters.write_calls, 1);
        add(&self.counters.write_bytes, bytes.len() as u64);
        LocalDisk.write_all(path, bytes)
    }

    fn sync(&self, path: &Path) -> cdms::Result<()> {
        let _s = trace::span("cdms.storage.fsync");
        add(&self.counters.fsync_calls, 1);
        LocalDisk.sync(path)
    }

    fn sync_dir(&self, dir: &Path) -> cdms::Result<()> {
        let _s = trace::span("cdms.storage.fsync");
        add(&self.counters.fsync_calls, 1);
        LocalDisk.sync_dir(dir)
    }

    fn len(&self, path: &Path) -> cdms::Result<u64> {
        LocalDisk.len(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> cdms::Result<()> {
        let _s = trace::span("cdms.storage.write");
        add(&self.counters.write_calls, 1);
        LocalDisk.rename(from, to)
    }

    fn remove(&self, path: &Path) -> cdms::Result<()> {
        let _s = trace::span("cdms.storage.write");
        add(&self.counters.write_calls, 1);
        LocalDisk.remove(path)
    }
}
