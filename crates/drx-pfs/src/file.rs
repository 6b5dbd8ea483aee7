//! The file-system facade: named logical files striped across the simulated
//! I/O servers.

use crate::error::{PfsError, Result};
use crate::par::{self, JobList, Piece};
use crate::retry::RetryPolicy;
use crate::server::{Backing, IoServer};
use crate::stats::{CostModel, PfsStats};
use crate::striping::StripeMap;
use drx_fault::Injector;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of a simulated parallel file system.
#[derive(Clone)]
pub struct PfsConfig {
    /// Number of I/O servers data is striped over.
    pub n_servers: usize,
    /// Stripe size in bytes.
    pub stripe_size: u64,
    /// Per-server cost model for the simulated clock.
    pub cost: CostModel,
    /// Memory, real-disk, or crash-model backing.
    pub backing: Backing,
    /// Retry schedule for transient per-fragment storage errors.
    pub retry: RetryPolicy,
    /// Scripted fault injector wrapped around every server's storage
    /// (`None` = no injection).
    pub injector: Option<Arc<Injector>>,
    /// Client-side I/O workers for vectored requests: the most server
    /// requests one call keeps in flight. The calling thread is one of
    /// them, so `n` workers spawn `n − 1` threads per call. `1` issues
    /// fragments sequentially; larger values overlap requests to distinct
    /// servers. Forced to `1` whenever a fault injector is armed so
    /// scripted replays keep a deterministic request order.
    pub io_workers: usize,
    /// Emulated wall-clock service latency per server request (`None` =
    /// memory-speed). Each server services its requests serially behind the
    /// latency, so concurrent requests only overlap across *distinct*
    /// servers — the remote-I/O-server regime the paper assumes.
    pub request_latency: Option<std::time::Duration>,
}

impl std::fmt::Debug for PfsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfsConfig")
            .field("n_servers", &self.n_servers)
            .field("stripe_size", &self.stripe_size)
            .field("cost", &self.cost)
            .field("backing", &self.backing)
            .field("retry", &self.retry)
            .field("injector", &self.injector.as_ref().map(|_| "Injector"))
            .field("io_workers", &self.io_workers)
            .field("request_latency", &self.request_latency)
            .finish()
    }
}

impl Default for PfsConfig {
    fn default() -> Self {
        PfsConfig {
            n_servers: 4,
            stripe_size: 64 * 1024,
            cost: CostModel::default(),
            backing: Backing::Memory,
            retry: RetryPolicy::default(),
            injector: None,
            io_workers: 1,
            request_latency: None,
        }
    }
}

struct PfsInner {
    servers: Vec<Arc<IoServer>>,
    map: StripeMap,
    retry: RetryPolicy,
    /// Effective worker count for vectored requests (already clamped to 1
    /// when a fault injector is armed).
    io_workers: usize,
    /// Logical lengths of the named files.
    // lock-class: inner.meta => PfsMeta
    meta: Mutex<HashMap<String, u64>>,
}

/// A simulated striped parallel file system (PVFS2 stand-in).
///
/// `Pfs` is cheaply cloneable; clones share servers, files and statistics,
/// so every rank of a parallel program can hold one.
#[derive(Clone)]
pub struct Pfs {
    inner: Arc<PfsInner>,
}

impl Pfs {
    pub fn new(config: PfsConfig) -> Result<Self> {
        let map = StripeMap::new(config.n_servers, config.stripe_size)?;
        let servers = (0..config.n_servers)
            .map(|id| {
                IoServer::with_injector(
                    id,
                    config.backing.clone(),
                    config.cost,
                    config.injector.clone(),
                    config.request_latency,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        // Fault scripts replay against a deterministic global request
        // order; a concurrent pool would reorder the ops they count.
        let io_workers = if config.injector.is_some() { 1 } else { config.io_workers.max(1) };
        Ok(Pfs {
            inner: Arc::new(PfsInner {
                servers,
                map,
                retry: config.retry,
                io_workers,
                meta: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// Memory-backed file system with the default cost model.
    pub fn memory(n_servers: usize, stripe_size: u64) -> Result<Self> {
        Pfs::new(PfsConfig { n_servers, stripe_size, ..PfsConfig::default() })
    }

    pub fn stripe_size(&self) -> u64 {
        self.inner.map.stripe_size()
    }

    pub fn n_servers(&self) -> usize {
        self.inner.map.n_servers()
    }

    /// Effective client-side I/O worker count for vectored requests.
    pub fn io_workers(&self) -> usize {
        self.inner.io_workers
    }

    /// Create a new empty file; errors if it already exists.
    pub fn create(&self, name: &str) -> Result<PfsFile> {
        {
            let mut meta = self.inner.meta.lock();
            if meta.contains_key(name) {
                return Err(PfsError::AlreadyExists(name.to_string()));
            }
            meta.insert(name.to_string(), 0);
        }
        for s in &self.inner.servers {
            s.ensure_file(name)?;
        }
        Ok(PfsFile { inner: Arc::clone(&self.inner), name: name.to_string() })
    }

    /// Open an existing file.
    pub fn open(&self, name: &str) -> Result<PfsFile> {
        if !self.inner.meta.lock().contains_key(name) {
            return Err(PfsError::NoSuchFile(name.to_string()));
        }
        Ok(PfsFile { inner: Arc::clone(&self.inner), name: name.to_string() })
    }

    /// Open, creating if absent.
    pub fn open_or_create(&self, name: &str) -> Result<PfsFile> {
        match self.create(name) {
            Ok(f) => Ok(f),
            Err(PfsError::AlreadyExists(_)) => self.open(name),
            Err(e) => Err(e),
        }
    }

    pub fn exists(&self, name: &str) -> bool {
        self.inner.meta.lock().contains_key(name)
    }

    /// Delete a file and its server-local streams.
    pub fn delete(&self, name: &str) -> Result<()> {
        if self.inner.meta.lock().remove(name).is_none() {
            return Err(PfsError::NoSuchFile(name.to_string()));
        }
        for s in &self.inner.servers {
            s.remove_file(name)?;
        }
        Ok(())
    }

    /// Snapshot of all server counters.
    pub fn stats(&self) -> PfsStats {
        PfsStats { per_server: self.inner.servers.iter().map(|s| s.stats()).collect() }
    }

    /// Reset all counters.
    pub fn reset_stats(&self) {
        for s in &self.inner.servers {
            s.reset_stats();
        }
    }

    /// Adopt a file whose server-local streams already exist — crash
    /// recovery over a [`Backing::Crash`] registry (or a `Disk` directory)
    /// that survived the previous instance. The logical length is rebuilt
    /// as the largest global offset any surviving local stream implies;
    /// callers holding richer metadata (array headers) should correct it
    /// with [`PfsFile::set_len`] afterwards.
    pub fn recover(&self, name: &str) -> Result<PfsFile> {
        let mut flen = 0u64;
        for s in &self.inner.servers {
            s.ensure_file(name)?;
            let local = s.local_len(name)?;
            flen = flen.max(self.inner.map.global_end(s.id(), local));
        }
        self.inner.meta.lock().insert(name.to_string(), flen);
        Ok(PfsFile { inner: Arc::clone(&self.inner), name: name.to_string() })
    }
}

/// Handle to one logical striped file. Cloneable and shareable across
/// threads (ranks).
#[derive(Clone)]
pub struct PfsFile {
    inner: Arc<PfsInner>,
    name: String,
}

impl PfsFile {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical file length in bytes.
    pub fn len(&self) -> u64 {
        *self.inner.meta.lock().get(&self.name).unwrap_or(&0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read exactly `buf.len()` bytes at `offset`; the whole range must lie
    /// within the logical length.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_pieces([(offset, buf)])
    }

    /// Convenience: allocate and read `len` bytes at `offset`.
    pub fn read_vec(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read_at(offset, &mut buf)?;
        Ok(buf)
    }

    /// Vectored read: fill `buf` with the concatenation of the byte ranges
    /// in `extents` (each `(offset, len)`). A thin wrapper over
    /// [`PfsFile::read_pieces`].
    pub fn read_extents_into(&self, extents: &[(u64, u64)], buf: &mut [u8]) -> Result<()> {
        check_total(extents, buf.len(), "buffer")?;
        let mut rest = buf;
        self.read_pieces(extents.iter().map(|&(offset, len)| {
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(len as usize);
            rest = tail;
            (offset, piece)
        }))
    }

    /// Vectored read returning a freshly allocated buffer.
    pub fn read_extents(&self, extents: &[(u64, u64)]) -> Result<Vec<u8>> {
        let total = extent_total(extents)
            .ok_or_else(|| PfsError::Config("extent total overflows u64".into()))?;
        let mut buf = vec![0u8; total as usize];
        self.read_extents_into(extents, &mut buf)?;
        Ok(buf)
    }

    /// Write `data` at `offset`, extending the logical length if the range
    /// ends beyond it.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.write_pieces([(offset, data)])
    }

    /// Vectored write: `data` is the concatenation of the byte ranges in
    /// `extents`. A thin wrapper over [`PfsFile::write_pieces`].
    pub fn write_extents(&self, extents: &[(u64, u64)], data: &[u8]) -> Result<()> {
        check_total(extents, data.len(), "data")?;
        let mut rest = data;
        self.write_pieces(extents.iter().map(|&(offset, len)| {
            let (piece, tail) = rest.split_at(len as usize);
            rest = tail;
            (offset, piece)
        }))
    }

    /// Scatter read: fill every `(offset, buf)` piece with the file bytes
    /// `[offset, offset + buf.len())`, which must lie within the logical
    /// length. Pieces may come in any order and from any buffers; each is
    /// split at stripe boundaries, and fragments that continue a server's
    /// local run join that server's request, so one server request covers
    /// one contiguous local run (see [`StripeMap::request_count`]).
    /// Requests go through the I/O worker pool, overlapping distinct
    /// servers when the file system has `io_workers > 1`.
    pub fn read_pieces<'b>(
        &self,
        pieces: impl IntoIterator<Item = (u64, &'b mut [u8])>,
    ) -> Result<()> {
        self.issue(pieces, Some(self.len())).map(drop)
    }

    /// Gather write: store every `(offset, data)` piece at `offset` (the
    /// counterpart of [`PfsFile::read_pieces`]). The logical length grows
    /// to cover the furthest piece.
    pub fn write_pieces<'b>(
        &self,
        pieces: impl IntoIterator<Item = (u64, &'b [u8])>,
    ) -> Result<()> {
        let end = self.issue(pieces, None)?;
        let mut meta = self.inner.meta.lock();
        let entry =
            meta.get_mut(&self.name).ok_or_else(|| PfsError::NoSuchFile(self.name.clone()))?;
        *entry = (*entry).max(end);
        Ok(())
    }

    /// Validate, group into list requests and issue `pieces`; returns the
    /// furthest piece end. `limit` bounds reads at the logical length. A
    /// call that maps to a single fragment skips the grouping.
    fn issue<B: Piece>(
        &self,
        pieces: impl IntoIterator<Item = (u64, B)>,
        limit: Option<u64>,
    ) -> Result<u64> {
        let checked_end = |offset: u64, len: u64| match offset.checked_add(len) {
            Some(end) if limit.is_none_or(|l| end <= l) => Ok(end),
            _ => Err(PfsError::OutOfRange {
                offset,
                len,
                file_len: limit.unwrap_or_else(|| self.len()),
            }),
        };
        let (map, servers, retry) = (&self.inner.map, &self.inner.servers, &self.inner.retry);
        let mut pieces = pieces.into_iter();
        let Some((offset, mut buf)) = pieces.next() else { return Ok(0) };
        let mut end = checked_end(offset, buf.len() as u64)?;
        let second = pieces.next();
        if second.is_none() {
            let mut frags = map.fragments(offset, buf.len() as u64);
            if let (Some(frag), None) = (frags.next(), frags.next()) {
                let server = &servers[frag.server];
                let one = std::slice::from_mut(&mut buf);
                retry.run(|| B::issue(server, &self.name, frag.local_offset, one))?;
                return Ok(end);
            }
        }
        let mut jobs = JobList::new(servers.len());
        for (offset, buf) in std::iter::once((offset, buf)).chain(second).chain(pieces) {
            let len = buf.len() as u64;
            end = end.max(checked_end(offset, len)?);
            let mut rest = buf;
            for frag in map.fragments(offset, len) {
                let (head, tail) = rest.split(frag.len as usize);
                rest = tail;
                jobs.push(&frag, head);
            }
        }
        par::run_jobs(servers, retry, &self.name, jobs.into_jobs(), self.inner.io_workers)?;
        Ok(end)
    }

    /// Set the logical length, zero-extending or truncating.
    pub fn set_len(&self, len: u64) -> Result<()> {
        {
            let mut meta = self.inner.meta.lock();
            let entry =
                meta.get_mut(&self.name).ok_or_else(|| PfsError::NoSuchFile(self.name.clone()))?;
            *entry = len;
        }
        // Best effort: trim the server-local stream at the boundary of the
        // new logical end (only the first fragment marks a meaningful
        // truncation point; later stripes read as zeros regardless).
        if let Some(frag) = self.inner.map.split(len, self.stripe_round()).first() {
            // allow-discard: stripe shrink is advisory; reads past the logical length are zeros
            let _ = self.inner.servers[frag.server].set_len(&self.name, frag.local_offset);
        }
        Ok(())
    }

    /// Bytes in one stripe unit: the file is dealt to the servers in
    /// units of this size, so a range inside one unit is one server's.
    pub fn stripe_size(&self) -> u64 {
        self.inner.map.stripe_size()
    }

    /// Bytes in one stripe round, `n_servers × stripe_size`: the span
    /// whose requests reach every server once.
    pub fn stripe_round(&self) -> u64 {
        self.inner.map.stripe_size() * self.inner.servers.len() as u64
    }

    /// Number of server requests a read/write of this byte range generates
    /// (one per server local run; see [`StripeMap::request_count`]).
    pub fn request_count(&self, offset: u64, len: u64) -> usize {
        self.inner.map.request_count(offset, len)
    }

    /// Durability barrier: fsync this file's stream on every server. After
    /// `sync` returns `Ok`, a crash (power loss) cannot lose the file's
    /// current contents.
    pub fn sync(&self) -> Result<()> {
        for s in &self.inner.servers {
            self.inner.retry.run(|| s.sync(&self.name))?;
        }
        Ok(())
    }
}

/// Sum of the extent lengths, `None` on overflow.
fn extent_total(extents: &[(u64, u64)]) -> Option<u64> {
    extents.iter().try_fold(0u64, |acc, &(_, l)| acc.checked_add(l))
}

/// Check that `extents` add up to a `len`-byte buffer.
fn check_total(extents: &[(u64, u64)], len: usize, what: &str) -> Result<()> {
    let total = extent_total(extents);
    if total != Some(len as u64) {
        return Err(PfsError::Config(format!(
            "extent total {} != {what} length {len}",
            total.map_or_else(|| "overflows u64".to_string(), |t| t.to_string())
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Pfs {
        Pfs::memory(4, 16).unwrap()
    }

    #[test]
    fn create_open_delete() {
        let fs = fs();
        let f = fs.create("a.xta").unwrap();
        assert!(fs.exists("a.xta"));
        assert!(fs.create("a.xta").is_err());
        assert_eq!(f.len(), 0);
        drop(f);
        let _ = fs.open("a.xta").unwrap();
        fs.delete("a.xta").unwrap();
        assert!(!fs.exists("a.xta"));
        assert!(fs.open("a.xta").is_err());
        assert!(fs.delete("a.xta").is_err());
    }

    #[test]
    fn striped_write_read_round_trip() {
        let fs = fs();
        let f = fs.create("f").unwrap();
        let data: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        f.write_at(5, &data).unwrap();
        assert_eq!(f.len(), 205);
        let back = f.read_vec(5, 200).unwrap();
        assert_eq!(back, data);
        // Unwritten prefix reads as zeros.
        let head = f.read_vec(0, 5).unwrap();
        assert_eq!(head, vec![0; 5]);
    }

    #[test]
    fn read_beyond_eof_errors() {
        let fs = fs();
        let f = fs.create("f").unwrap();
        f.write_at(0, &[1, 2, 3]).unwrap();
        assert!(matches!(
            f.read_at(2, &mut [0; 10]),
            Err(PfsError::OutOfRange { file_len: 3, .. })
        ));
    }

    #[test]
    fn stats_reflect_fragmentation() {
        let fs = fs(); // stripe 16, 4 servers
        let f = fs.create("f").unwrap();
        fs.reset_stats();
        f.write_at(0, &[0u8; 64]).unwrap(); // exactly one stripe per server
        let st = fs.stats();
        assert_eq!(st.total_requests(), 4);
        assert!(st.per_server.iter().all(|s| s.write_requests == 1 && s.bytes_written == 16));
        // Misaligned read of 16 bytes crosses one boundary → 2 requests.
        fs.reset_stats();
        f.read_at(8, &mut [0u8; 16]).unwrap();
        assert_eq!(fs.stats().total_requests(), 2);
    }

    #[test]
    fn clones_share_state() {
        let fs = fs();
        let f = fs.create("f").unwrap();
        let fs2 = fs.clone();
        let f2 = fs2.open("f").unwrap();
        f.write_at(0, b"shared").unwrap();
        assert_eq!(f2.read_vec(0, 6).unwrap(), b"shared");
        assert_eq!(f2.len(), 6);
    }

    #[test]
    fn set_len_truncates_logically() {
        let fs = fs();
        let f = fs.create("f").unwrap();
        f.write_at(0, &[1u8; 40]).unwrap();
        f.set_len(10).unwrap();
        assert_eq!(f.len(), 10);
        assert!(f.read_at(0, &mut [0; 11]).is_err());
        f.set_len(20).unwrap();
        assert_eq!(f.len(), 20);
    }

    #[test]
    fn transient_injected_faults_are_retried_away() {
        use drx_fault::{Event, FaultKind, Injector, Script};
        // Two EINTRs early in the run: the retry policy absorbs both.
        let script = Script {
            seed: 0,
            events: vec![
                Event { at_op: 0, domain: None, op: None, kind: FaultKind::Interrupted },
                Event { at_op: 1, domain: None, op: None, kind: FaultKind::Interrupted },
            ],
        };
        let fs = Pfs::new(PfsConfig {
            n_servers: 2,
            stripe_size: 16,
            injector: Some(Arc::new(Injector::new(script))),
            retry: RetryPolicy { base_delay_us: 1, max_delay_us: 10, ..RetryPolicy::default() },
            ..PfsConfig::default()
        })
        .unwrap();
        let f = fs.create("f").unwrap();
        f.write_at(0, &[7u8; 64]).unwrap();
        assert_eq!(f.read_vec(0, 64).unwrap(), vec![7u8; 64]);
    }

    #[test]
    fn down_server_surfaces_unavailable_not_hang() {
        use drx_fault::{Injector, Script};
        let inj = Arc::new(Injector::new(Script::empty()));
        let fs = Pfs::new(PfsConfig {
            n_servers: 2,
            stripe_size: 16,
            injector: Some(Arc::clone(&inj)),
            retry: RetryPolicy { base_delay_us: 1, max_delay_us: 10, ..RetryPolicy::default() },
            ..PfsConfig::default()
        })
        .unwrap();
        let f = fs.create("f").unwrap();
        f.write_at(0, &[1u8; 64]).unwrap();
        inj.set_down(1, true);
        // A range entirely on server 0 still works (degraded mode)...
        assert_eq!(f.read_vec(0, 16).unwrap(), vec![1u8; 16]);
        // ...but touching server 1 is a typed error, immediately.
        assert!(matches!(f.read_at(16, &mut [0u8; 16]), Err(PfsError::Unavailable { server: 1 })));
        inj.set_down(1, false);
        assert_eq!(f.read_vec(16, 16).unwrap(), vec![1u8; 16]);
    }

    #[test]
    fn crash_recovery_rebuilds_logical_length() {
        use drx_fault::CrashRegistry;
        let reg = CrashRegistry::new();
        let config = PfsConfig {
            n_servers: 2,
            stripe_size: 16,
            backing: Backing::Crash(Arc::clone(&reg)),
            ..PfsConfig::default()
        };
        {
            let fs = Pfs::new(config.clone()).unwrap();
            let f = fs.create("f").unwrap();
            f.write_at(0, &[5u8; 100]).unwrap();
            f.sync().unwrap();
            f.write_at(100, &[6u8; 50]).unwrap(); // never synced
        }
        reg.crash_all(); // power loss; the old Pfs instance is gone
        let fs = Pfs::new(config).unwrap();
        assert!(!fs.exists("f")); // logical metadata did not survive
        let f = fs.recover("f").unwrap();
        assert_eq!(f.len(), 100, "only synced bytes survive the crash");
        assert_eq!(f.read_vec(0, 100).unwrap(), vec![5u8; 100]);
    }

    #[test]
    fn ranges_past_u64_max_are_out_of_range() {
        let fs = fs();
        let f = fs.create("f").unwrap();
        f.write_at(0, &[1u8; 256]).unwrap();
        let at = u64::MAX - 7;
        let mut buf = [9u8; 16];
        assert!(matches!(
            f.read_at(at, &mut buf),
            Err(PfsError::OutOfRange { offset, len: 16, file_len: 256 }) if offset == at
        ));
        assert_eq!(buf, [9u8; 16], "a rejected read leaves the buffer alone");
        assert!(matches!(
            f.write_at(at, &[2u8; 16]),
            Err(PfsError::OutOfRange { offset, len: 16, file_len: 256 }) if offset == at
        ));
        assert!(matches!(
            f.read_extents_into(&[(0, 8), (at, 16)], &mut [0u8; 24]),
            Err(PfsError::OutOfRange { .. })
        ));
        assert!(matches!(
            f.write_extents(&[(0, 8), (at, 16)], &[3u8; 24]),
            Err(PfsError::OutOfRange { .. })
        ));
        // Extent lengths whose sum overflows are a size mismatch.
        assert!(matches!(
            f.read_extents_into(&[(0, u64::MAX), (0, 2)], &mut [0u8; 1]),
            Err(PfsError::Config(_))
        ));
        assert!(matches!(f.read_extents(&[(0, u64::MAX), (0, 2)]), Err(PfsError::Config(_))));
        // Nothing was written and the length did not move.
        assert_eq!(f.len(), 256);
        assert_eq!(f.read_vec(0, 256).unwrap(), vec![1u8; 256]);
    }

    #[test]
    fn single_fragment_calls_match_grouped_calls() {
        // The one-fragment fast path and the grouped path agree on bytes
        // and on request accounting.
        let fs = fs(); // stripe 16, 4 servers
        let f = fs.create("f").unwrap();
        let pattern: Vec<u8> = (0..128u8).collect();
        f.write_at(0, &pattern).unwrap();
        fs.reset_stats();
        assert_eq!(f.read_vec(20, 10).unwrap(), &pattern[20..30]); // one fragment
        assert_eq!(f.read_vec(20, 40).unwrap(), &pattern[20..60]); // grouped
        let st = fs.stats();
        assert_eq!(st.total_requests() as usize, 1 + f.request_count(20, 40));
        assert_eq!(st.total_bytes(), 50);
    }

    #[test]
    fn vectored_extents_round_trip_across_worker_counts() {
        for workers in [1usize, 2, 4, 8] {
            let fs = Pfs::new(PfsConfig {
                n_servers: 4,
                stripe_size: 16,
                io_workers: workers,
                ..PfsConfig::default()
            })
            .unwrap();
            assert_eq!(fs.io_workers(), workers);
            let f = fs.create("f").unwrap();
            let pattern: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
            // Discontiguous extents, some crossing stripe boundaries.
            let extents = [(0u64, 40u64), (60, 16), (100, 100), (200, 56)];
            let data: Vec<u8> = extents
                .iter()
                .flat_map(|&(o, l)| pattern[o as usize..(o + l) as usize].to_vec())
                .collect();
            f.set_len(256).unwrap();
            f.write_extents(&extents, &data).unwrap();
            let back = f.read_extents(&extents).unwrap();
            assert_eq!(back, data, "workers {workers}");
            // Untouched gap bytes stayed zero.
            assert_eq!(f.read_vec(40, 20).unwrap(), vec![0u8; 20]);
        }
    }

    #[test]
    fn vectored_extents_validate_sizes_and_range() {
        let fs = Pfs::new(PfsConfig {
            n_servers: 2,
            stripe_size: 16,
            io_workers: 4,
            ..PfsConfig::default()
        })
        .unwrap();
        let f = fs.create("f").unwrap();
        f.write_at(0, &[1u8; 64]).unwrap();
        // Buffer/extent mismatch.
        assert!(matches!(f.read_extents_into(&[(0, 8)], &mut [0u8; 4]), Err(PfsError::Config(_))));
        assert!(matches!(f.write_extents(&[(0, 8)], &[0u8; 4]), Err(PfsError::Config(_))));
        // An extent past EOF fails up front.
        assert!(matches!(f.read_extents(&[(0, 8), (60, 8)]), Err(PfsError::OutOfRange { .. })));
    }

    #[test]
    fn worker_pool_surfaces_down_server_errors() {
        use drx_fault::{Injector, Script};
        let inj = Arc::new(Injector::new(Script::empty()));
        let fs = Pfs::new(PfsConfig {
            n_servers: 4,
            stripe_size: 16,
            injector: Some(Arc::clone(&inj)),
            io_workers: 8, // must be clamped: injector armed
            retry: RetryPolicy { base_delay_us: 1, max_delay_us: 10, ..RetryPolicy::default() },
            ..PfsConfig::default()
        })
        .unwrap();
        assert_eq!(fs.io_workers(), 1, "injector forces sequential issue");
        let f = fs.create("f").unwrap();
        f.write_at(0, &[2u8; 128]).unwrap();
        inj.set_down(2, true);
        assert!(matches!(
            f.read_extents(&[(0, 64), (64, 64)]),
            Err(PfsError::Unavailable { server: 2 })
        ));
        inj.set_down(2, false);
        assert_eq!(f.read_extents(&[(0, 64), (64, 64)]).unwrap(), vec![2u8; 128]);
    }

    #[test]
    fn parallel_writes_from_threads() {
        let fs = Pfs::memory(4, 32).unwrap();
        let f = fs.create("f").unwrap();
        f.set_len(4 * 1024).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let f = f.clone();
                scope.spawn(move || {
                    let data = vec![t as u8 + 1; 1024];
                    f.write_at(t as u64 * 1024, &data).unwrap();
                });
            }
        });
        for t in 0..4usize {
            let back = f.read_vec(t as u64 * 1024, 1024).unwrap();
            assert!(back.iter().all(|&b| b == t as u8 + 1));
        }
    }
}
