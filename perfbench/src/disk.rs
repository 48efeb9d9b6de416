//! A `Disk` wrapper that counts every operation and, when tracing, records
//! a `disk.*` span around it.
//!
//! `Runtime` needs `Disk + Clone`; the wrapper shares its inner disk and
//! counters through `Arc`s, so it also makes `FileDisk` (which is not
//! `Clone`) usable under the runtime.

use crate::trace::{NameId, Tracer};
use bioopera_store::{Disk, StoreResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calls and bytes of one operation kind.
#[derive(Default)]
struct OpCounter {
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl OpCounter {
    // Statistics only: nothing else is published through these atomics.
    fn add(&self, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn get(&self) -> OpCount {
        OpCount {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one operation kind's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Calls made.
    pub calls: u64,
    /// Bytes passed in (writes) or returned (reads).
    pub bytes: u64,
}

/// A snapshot of every counter of a [`MeteredDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounts {
    /// `append`.
    pub append: OpCount,
    /// `write_atomic`.
    pub write_atomic: OpCount,
    /// `read`.
    pub read: OpCount,
    /// `read_range`.
    pub read_range: OpCount,
    /// `delete` (bytes unused).
    pub delete: OpCount,
}

impl DiskCounts {
    /// Bytes handed to the disk for writing.
    pub fn written(&self) -> u64 {
        self.append.bytes + self.write_atomic.bytes
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &DiskCounts) -> DiskCounts {
        let d = |a: OpCount, b: OpCount| OpCount {
            calls: a.calls - b.calls,
            bytes: a.bytes - b.bytes,
        };
        DiskCounts {
            append: d(self.append, earlier.append),
            write_atomic: d(self.write_atomic, earlier.write_atomic),
            read: d(self.read, earlier.read),
            read_range: d(self.read_range, earlier.read_range),
            delete: d(self.delete, earlier.delete),
        }
    }

    /// Bytes returned by reads.
    pub fn read_bytes(&self) -> u64 {
        self.read.bytes + self.read_range.bytes
    }
}

#[derive(Default)]
struct Counters {
    append: OpCounter,
    write_atomic: OpCounter,
    read: OpCounter,
    read_range: OpCounter,
    delete: OpCounter,
}

#[derive(Clone, Copy)]
struct Names {
    append: NameId,
    write_atomic: NameId,
    read: NameId,
    read_range: NameId,
    delete: NameId,
}

/// The metering wrapper.
pub struct MeteredDisk<D> {
    inner: Arc<D>,
    counters: Arc<Counters>,
    tracer: Arc<Tracer>,
    names: Names,
}

impl<D> Clone for MeteredDisk<D> {
    fn clone(&self) -> Self {
        MeteredDisk {
            inner: Arc::clone(&self.inner),
            counters: Arc::clone(&self.counters),
            tracer: Arc::clone(&self.tracer),
            names: self.names,
        }
    }
}

impl<D: Disk> MeteredDisk<D> {
    /// Wrap `inner`; spans go to `tracer`.
    pub fn new(inner: D, tracer: &Arc<Tracer>) -> Self {
        MeteredDisk {
            inner: Arc::new(inner),
            counters: Arc::new(Counters::default()),
            tracer: Arc::clone(tracer),
            names: Names {
                append: tracer.intern("disk.append"),
                write_atomic: tracer.intern("disk.write_atomic"),
                read: tracer.intern("disk.read"),
                read_range: tracer.intern("disk.read_range"),
                delete: tracer.intern("disk.delete"),
            },
        }
    }

    /// Counters so far.
    pub fn counts(&self) -> DiskCounts {
        let c = &self.counters;
        DiskCounts {
            append: c.append.get(),
            write_atomic: c.write_atomic.get(),
            read: c.read.get(),
            read_range: c.read_range.get(),
            delete: c.delete.get(),
        }
    }

    /// The wrapped disk.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: Disk> Disk for MeteredDisk<D> {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        let t = self.tracer.leaf_start();
        let out = self.inner.read(name);
        self.tracer.leaf_end(self.names.read, t);
        let n = match &out {
            Ok(Some(data)) => data.len(),
            _ => 0,
        };
        self.counters.read.add(n);
        out
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        let t = self.tracer.leaf_start();
        let out = self.inner.write_atomic(name, data);
        self.tracer.leaf_end(self.names.write_atomic, t);
        self.counters.write_atomic.add(data.len());
        out
    }

    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        let t = self.tracer.leaf_start();
        let out = self.inner.append(name, data);
        self.tracer.leaf_end(self.names.append, t);
        self.counters.append.add(data.len());
        out
    }

    fn list(&self) -> StoreResult<Vec<String>> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> StoreResult<()> {
        let t = self.tracer.leaf_start();
        let out = self.inner.delete(name);
        self.tracer.leaf_end(self.names.delete, t);
        self.counters.delete.add(0);
        out
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        let t = self.tracer.leaf_start();
        let out = self.inner.read_range(name, offset, len);
        self.tracer.leaf_end(self.names.read_range, t);
        let n = match &out {
            Ok(Some(data)) => data.len(),
            _ => 0,
        };
        self.counters.read_range.add(n);
        out
    }

    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.inner.file_size(name)
    }
}
