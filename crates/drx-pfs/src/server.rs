//! A simulated I/O server: a namespace of per-file storage streams plus
//! request accounting and optional scripted fault injection.

use crate::backend::{CrashBackend, FaultyBackend, FileBackend, MemBackend, Storage};
use crate::error::{PfsError, Result};
use crate::stats::{CostModel, ServerStats};
use drx_fault::{CrashRegistry, Injector};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// How a server materializes its local streams.
#[derive(Clone)]
pub enum Backing {
    /// Volatile in-memory buffers (default; deterministic).
    Memory,
    /// Real files under the given directory (one subdirectory per server).
    Disk(PathBuf),
    /// Crash-model buffers in a shared [`CrashRegistry`]: `sync` is the
    /// durability barrier, and the registry outlives the file system so a
    /// rebuilt instance models a post-crash reboot.
    Crash(Arc<CrashRegistry>),
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Memory => write!(f, "Memory"),
            Backing::Disk(dir) => f.debug_tuple("Disk").field(dir).finish(),
            Backing::Crash(_) => write!(f, "Crash(..)"),
        }
    }
}

struct FileEntry {
    storage: Box<dyn Storage>,
    /// Where the previous request on this file ended, for seek detection.
    last_end: Option<u64>,
}

/// A simulated I/O server.
pub struct IoServer {
    id: usize,
    backing: Backing,
    cost: CostModel,
    // `with_entry` runs its closure under the files lock, so the entry's
    // backing store and the stats counters are ordered after it:
    // lock-order: PfsFiles -> PfsStats
    // lock-order: PfsFiles -> PfsBacking
    // lock-class: files => PfsFiles
    files: Mutex<HashMap<String, FileEntry>>,
    // lock-class: stats => PfsStats
    stats: Mutex<ServerStats>,
    /// Scripted fault injector shared across all servers of a file system;
    /// `None` means storage operations run unwrapped.
    injector: Option<Arc<Injector>>,
    /// Emulated wall-clock service latency charged per request, while the
    /// request holds the file table — requests to the same server serialize
    /// behind it (one service thread per server), requests to distinct
    /// servers overlap. `None` (the default) keeps the backend purely
    /// memory-speed.
    latency: Option<std::time::Duration>,
}

impl IoServer {
    pub fn new(id: usize, backing: Backing, cost: CostModel) -> Result<Arc<Self>> {
        IoServer::with_injector(id, backing, cost, None, None)
    }

    /// Like [`IoServer::new`], but every storage stream this server creates
    /// is wrapped in a [`FaultyBackend`] consulting `injector` (the server
    /// id is the fault domain), and each request sleeps `latency` while
    /// being serviced.
    pub fn with_injector(
        id: usize,
        backing: Backing,
        cost: CostModel,
        injector: Option<Arc<Injector>>,
        latency: Option<std::time::Duration>,
    ) -> Result<Arc<Self>> {
        if let Backing::Disk(dir) = &backing {
            std::fs::create_dir_all(dir.join(format!("server{id}")))?;
        }
        Ok(Arc::new(IoServer {
            id,
            backing,
            cost,
            files: Mutex::new(HashMap::new()),
            stats: Mutex::new(ServerStats::default()),
            injector,
            latency,
        }))
    }

    pub fn id(&self) -> usize {
        self.id
    }

    fn make_storage(&self, name: &str) -> Result<Box<dyn Storage>> {
        let inner: Box<dyn Storage> = match &self.backing {
            Backing::Memory => Box::new(MemBackend::new()),
            Backing::Disk(dir) => {
                let safe: String = name
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                            c
                        } else {
                            '_'
                        }
                    })
                    .collect();
                Box::new(FileBackend::open(&dir.join(format!("server{}", self.id)).join(safe))?)
            }
            Backing::Crash(registry) => {
                Box::new(CrashBackend::new(registry.open(&format!("server{}/{name}", self.id))))
            }
        };
        Ok(match &self.injector {
            Some(inj) => Box::new(FaultyBackend::new(inner, Arc::clone(inj), self.id)),
            None => inner,
        })
    }

    /// Ensure the server has a stream for `name` (idempotent).
    pub fn ensure_file(&self, name: &str) -> Result<()> {
        let mut files = self.files.lock();
        if !files.contains_key(name) {
            let storage = self.make_storage(name)?;
            files.insert(name.to_string(), FileEntry { storage, last_end: None });
        }
        Ok(())
    }

    /// Drop the stream for `name`.
    pub fn remove_file(&self, name: &str) -> Result<()> {
        self.files.lock().remove(name);
        if let Backing::Disk(dir) = &self.backing {
            let path = dir.join(format!("server{}", self.id)).join(name);
            // allow-discard: the file may never have been spilled to disk
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    fn with_entry<R>(&self, name: &str, f: impl FnOnce(&mut FileEntry) -> Result<R>) -> Result<R> {
        let mut files = self.files.lock();
        let entry = files
            .get_mut(name)
            .ok_or_else(|| PfsError::NoSuchFile(format!("{name} (server {})", self.id)))?;
        f(entry)
    }

    /// Service one read request against a file's local stream.
    pub fn read(&self, name: &str, local_offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_list(name, local_offset, &mut [buf])
    }

    /// Service one write request against a file's local stream.
    pub fn write(&self, name: &str, local_offset: u64, data: &[u8]) -> Result<()> {
        self.write_list(name, local_offset, &[data])
    }

    /// Service one list read: the local run starting at `local_offset` is
    /// scattered into `bufs` in order. The request is charged, counted and
    /// seek-checked once; the storage stream still sees one read per
    /// buffer.
    pub fn read_list(&self, name: &str, local_offset: u64, bufs: &mut [&mut [u8]]) -> Result<()> {
        let run = (local_offset, bufs.iter().map(|b| b.len() as u64).sum());
        let mut pos = local_offset;
        for (i, buf) in bufs.iter_mut().enumerate() {
            self.serve_piece(name, run, i == 0, false, |s| s.read_at(pos, buf))?;
            pos += buf.len() as u64;
        }
        Ok(())
    }

    /// Service one list write: `bufs`, in order, fill the local run
    /// starting at `local_offset` (the gather counterpart of
    /// [`IoServer::read_list`]).
    pub fn write_list(&self, name: &str, local_offset: u64, bufs: &[&[u8]]) -> Result<()> {
        let run = (local_offset, bufs.iter().map(|b| b.len() as u64).sum());
        let mut pos = local_offset;
        for (i, data) in bufs.iter().enumerate() {
            self.serve_piece(name, run, i == 0, true, |s| s.write_at(pos, data))?;
            pos += data.len() as u64;
        }
        Ok(())
    }

    /// One storage operation `io` of the list request over the local run
    /// `run = (offset, len)`. The request's `first` piece also opens it:
    /// the emulated latency and the accounting.
    /// The file table is locked per piece, so other requests to this
    /// server can run between the pieces of a long list.
    pub(crate) fn serve_piece(
        &self,
        name: &str,
        run: (u64, u64),
        first: bool,
        is_write: bool,
        io: impl FnOnce(&dyn Storage) -> Result<()>,
    ) -> Result<()> {
        self.with_entry(name, |entry| {
            if first {
                if let Some(lat) = self.latency {
                    std::thread::sleep(lat);
                }
                let seek = entry.last_end != Some(run.0);
                entry.last_end = Some(run.0 + run.1);
                self.stats.lock().record(&self.cost, is_write, run.1, seek);
            }
            io(entry.storage.as_ref())
        })
    }

    /// Truncate/extend a file's local stream (not charged to the cost model).
    pub fn set_len(&self, name: &str, len: u64) -> Result<()> {
        self.with_entry(name, |entry| entry.storage.set_len(len))
    }

    /// Force a file's local stream to durable storage (fsync barrier).
    pub fn sync(&self, name: &str) -> Result<()> {
        self.with_entry(name, |entry| entry.storage.sync())
    }

    /// Locally written length of a file's stream in bytes.
    pub fn local_len(&self, name: &str) -> Result<u64> {
        self.with_entry(name, |entry| entry.storage.len())
    }

    /// Snapshot of this server's counters.
    pub fn stats(&self) -> ServerStats {
        *self.stats.lock()
    }

    /// Reset counters (not the stored data, nor the seek tracker).
    pub fn reset_stats(&self) {
        *self.stats.lock() = ServerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Arc<IoServer> {
        IoServer::new(0, Backing::Memory, CostModel::flat(10, 1.0)).unwrap()
    }

    #[test]
    fn read_write_round_trip() {
        let s = server();
        s.ensure_file("f").unwrap();
        s.write("f", 5, b"abc").unwrap();
        let mut buf = [0u8; 3];
        s.read("f", 5, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        assert!(s.read("missing", 0, &mut buf).is_err());
    }

    #[test]
    fn seek_detection_is_sequential_aware() {
        let s = server();
        s.ensure_file("f").unwrap();
        s.write("f", 0, &[0; 10]).unwrap(); // first request: seek
        s.write("f", 10, &[0; 10]).unwrap(); // contiguous: no seek
        s.write("f", 5, &[0; 2]).unwrap(); // backwards: seek
        let st = s.stats();
        assert_eq!(st.write_requests, 3);
        assert_eq!(st.seeks, 2);
        assert_eq!(st.bytes_written, 22);
    }

    #[test]
    fn a_list_request_is_one_request() {
        let s = server();
        s.ensure_file("f").unwrap();
        s.write_list("f", 0, &[b"ab", b"cde", b"f"]).unwrap();
        let (mut a, mut b) = ([0u8; 4], [0u8; 2]);
        s.read_list("f", 0, &mut [&mut a, &mut b]).unwrap();
        assert_eq!((&a, &b), (b"abcd", b"ef"));
        let st = s.stats();
        assert_eq!((st.write_requests, st.read_requests), (1, 1));
        assert_eq!((st.bytes_written, st.bytes_read), (6, 6));
        // One seek check per request: the write seeks, the read (back at
        // offset 0) seeks again; no piece counts on its own.
        assert_eq!(st.seeks, 2);
    }

    #[test]
    fn ensure_is_idempotent_and_remove_works() {
        let s = server();
        s.ensure_file("f").unwrap();
        s.write("f", 0, b"z").unwrap();
        s.ensure_file("f").unwrap(); // must not wipe data
        let mut buf = [0u8; 1];
        s.read("f", 0, &mut buf).unwrap();
        assert_eq!(&buf, b"z");
        s.remove_file("f").unwrap();
        assert!(s.read("f", 0, &mut buf).is_err());
    }

    #[test]
    fn reset_stats_clears_counters() {
        let s = server();
        s.ensure_file("f").unwrap();
        s.write("f", 0, b"abc").unwrap();
        assert_eq!(s.stats().requests(), 1);
        s.reset_stats();
        assert_eq!(s.stats().requests(), 0);
    }
}
