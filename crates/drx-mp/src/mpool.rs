//! Chunk buffer pool — the stand-in for the BerkeleyDB **Mpool** subsystem
//! the serial DRX library uses for I/O caching (paper §I: "memory resident
//! extendible arrays with I/O caching using the BerkeleyDB Mpool
//! sub-system").
//!
//! [`ChunkPool`] caches fixed-size chunks of a [`PfsFile`] with LRU
//! replacement, dirty tracking and write-back, and exposes hit/miss/eviction
//! statistics. [`CachedDrxFile`] layers it under the serial array API so
//! element accesses with locality stop paying one PFS round trip each.

use crate::error::{MpError, Result};
use crate::read::ChunkPlan;
use crate::serial::DrxFile;
use drx_core::{Element, Layout, Region};
use drx_pfs::PfsFile;
use std::collections::HashMap;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
}

impl PoolStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Component-wise difference `self - earlier`; used to attribute the
    /// work of one pool operation (or one session) out of cumulative totals.
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
        }
    }

    /// Component-wise accumulation.
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
    }
}

/// Result of a [`ChunkPool::prefetch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchOutcome {
    /// Chunks that were already resident (no I/O).
    pub resident: usize,
    /// Chunks fetched from the file by this call.
    pub fetched: usize,
    /// Runs of consecutive chunk addresses among the fetched chunks: the
    /// file extents the one scatter read covers.
    pub runs: usize,
}

struct Frame {
    data: Vec<u8>,
    dirty: bool,
    /// LRU clock value of the most recent touch.
    last_used: u64,
}

/// An LRU pool of fixed-size chunks over a PFS file.
///
/// ```
/// use drx_mp::ChunkPool;
/// use drx_pfs::Pfs;
///
/// let pfs = Pfs::memory(1, 1024).unwrap();
/// let f = pfs.create("data").unwrap();
/// f.set_len(256).unwrap();
/// let mut pool = ChunkPool::new(f, 64, 2).unwrap();
/// pool.write(0, 0, &[9; 8]).unwrap();   // dirty, cached
/// let mut buf = [0u8; 8];
/// pool.read(0, 0, &mut buf).unwrap();   // hit
/// assert_eq!(buf, [9; 8]);
/// assert_eq!(pool.stats().hits, 1);
/// pool.flush().unwrap();                // write-back
/// ```
pub struct ChunkPool {
    file: PfsFile,
    chunk_bytes: usize,
    capacity: usize,
    frames: HashMap<u64, Frame>,
    clock: u64,
    stats: PoolStats,
}

impl ChunkPool {
    /// Create a pool holding up to `capacity` chunks of `chunk_bytes` each.
    pub fn new(file: PfsFile, chunk_bytes: usize, capacity: usize) -> Result<Self> {
        if chunk_bytes == 0 || capacity == 0 {
            return Err(MpError::Invalid("chunk size and capacity must be positive".into()));
        }
        Ok(ChunkPool {
            file,
            chunk_bytes,
            capacity,
            frames: HashMap::with_capacity(capacity),
            clock: 0,
            stats: PoolStats::default(),
        })
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Whether chunk `addr` is resident (does not touch LRU state or stats).
    pub fn contains(&self, addr: u64) -> bool {
        self.frames.contains_key(&addr)
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    /// Ensure chunk `addr` is resident; fault it in (and evict the LRU
    /// victim, writing back if dirty) as needed.
    fn fault_in(&mut self, addr: u64) -> Result<&mut Frame> {
        if self.frames.contains_key(&addr) {
            self.stats.hits += 1;
            self.clock += 1;
            let frame = self.frames.get_mut(&addr).expect("checked resident");
            frame.last_used = self.clock;
            return Ok(frame);
        }
        self.make_room()?;
        let off = addr * self.chunk_bytes as u64;
        let data = self.file.read_vec(off, self.chunk_bytes)?;
        // The miss is recorded only once the fetch succeeded: a faulted
        // read leaves the counters describing work that actually happened.
        self.stats.misses += 1;
        Ok(self.install(addr, data, false))
    }

    /// Evict the least recently used frame if the pool is full.
    fn make_room(&mut self) -> Result<()> {
        if self.frames.len() < self.capacity {
            return Ok(());
        }
        let victim = self
            .frames
            .iter()
            .min_by_key(|(_, f)| f.last_used)
            .map(|(&a, _)| a)
            .expect("a full pool is non-empty");
        self.evict(victim)
    }

    /// Insert a frame for a non-resident `addr` as the most recently used
    /// (the caller made room).
    fn install(&mut self, addr: u64, data: Vec<u8>, dirty: bool) -> &mut Frame {
        self.clock += 1;
        self.frames.entry(addr).or_insert(Frame { data, dirty, last_used: self.clock })
    }

    fn evict(&mut self, addr: u64) -> Result<()> {
        // Trace hook for the drx-sched schedule explorer (no-op otherwise).
        #[cfg(drx_sched)]
        drx_sched::probe("mpool:evict");
        // Write back *before* removing the frame: if the write-back fails
        // (transient PFS fault, down stripe server) the dirty data must
        // stay in the pool so a later flush or retried eviction can still
        // persist it. Remove-first silently lost the chunk on error.
        let Some(frame) = self.frames.get(&addr) else { return Ok(()) };
        if frame.dirty {
            self.file.write_at(addr * self.chunk_bytes as u64, &frame.data)?;
            self.stats.writebacks += 1;
        }
        self.frames.remove(&addr);
        self.stats.evictions += 1;
        Ok(())
    }

    /// Borrow the resident image of chunk `addr`, faulting it in first on
    /// a miss. Counts exactly as [`ChunkPool::read`] does: one hit, or one
    /// miss plus any eviction it forces. Callers copy straight out of the
    /// frame; no chunk-sized buffer is made.
    pub fn frame(&mut self, addr: u64) -> Result<&[u8]> {
        Ok(&self.fault_in(addr)?.data)
    }

    /// Borrow the image of chunk `addr` for writing and mark it dirty
    /// (write-back on eviction or [`ChunkPool::flush`]).
    ///
    /// With `overwrite`, the caller promises to replace every byte: a
    /// non-resident chunk is then installed zeroed, without I/O, and counts
    /// as [`ChunkPool::put`] does (a hit if resident, a miss otherwise).
    /// Without it, the chunk is faulted in first (read-modify-write) and
    /// counts as [`ChunkPool::write`] does.
    pub fn frame_mut(&mut self, addr: u64, overwrite: bool) -> Result<&mut [u8]> {
        let frame = if overwrite && !self.frames.contains_key(&addr) {
            self.make_room()?;
            self.stats.misses += 1;
            let data = vec![0u8; self.chunk_bytes];
            self.install(addr, data, true)
        } else {
            self.fault_in(addr)?
        };
        frame.dirty = true;
        Ok(&mut frame.data)
    }

    /// Read bytes `range` of chunk `addr` through the cache.
    pub fn read(&mut self, addr: u64, offset: usize, buf: &mut [u8]) -> Result<()> {
        if offset + buf.len() > self.chunk_bytes {
            return Err(MpError::Invalid(format!(
                "read [{offset}, +{}) exceeds chunk size {}",
                buf.len(),
                self.chunk_bytes
            )));
        }
        buf.copy_from_slice(&self.frame(addr)?[offset..offset + buf.len()]);
        Ok(())
    }

    /// Write bytes into chunk `addr` through the cache (write-back: the
    /// chunk is marked dirty, flushed on eviction or `flush`).
    pub fn write(&mut self, addr: u64, offset: usize, data: &[u8]) -> Result<()> {
        if offset + data.len() > self.chunk_bytes {
            return Err(MpError::Invalid(format!(
                "write [{offset}, +{}) exceeds chunk size {}",
                data.len(),
                self.chunk_bytes
            )));
        }
        self.frame_mut(addr, false)?[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Overwrite chunk `addr` with a full chunk of data without faulting it
    /// in first — the read-modify-write a plain [`ChunkPool::write`] would
    /// pay is skipped because every byte is being replaced.
    ///
    /// Counts as a hit when the chunk is resident and a miss otherwise (the
    /// miss costs no I/O: the frame is installed directly, dirty).
    pub fn put(&mut self, addr: u64, data: &[u8]) -> Result<()> {
        if data.len() != self.chunk_bytes {
            return Err(MpError::Invalid(format!(
                "put of {} bytes into chunks of {}",
                data.len(),
                self.chunk_bytes
            )));
        }
        self.frame_mut(addr, true)?.copy_from_slice(data);
        Ok(())
    }

    /// Fault in a batch of chunks with one scatter read straight into the
    /// new frames. Runs of *consecutive* missing addresses become single
    /// file extents (the PFS layer joins adjacent pieces), so N per-chunk
    /// round trips turn into one request per run, and the PFS worker pool
    /// services distinct runs in parallel.
    ///
    /// Accounting: each fetched chunk counts one miss. Chunks already
    /// resident count nothing (the later [`ChunkPool::frame`] of each
    /// records its own hit) but become the most recently used, so a batch
    /// of at most `capacity` distinct chunks is wholly resident afterwards.
    /// A larger batch evicts its own first chunks as the later ones are
    /// installed: callers window their requests at `capacity`.
    pub fn prefetch(&mut self, addrs: &[u64]) -> Result<PrefetchOutcome> {
        // Trace hook for the drx-sched schedule explorer (no-op otherwise).
        #[cfg(drx_sched)]
        drx_sched::probe("mpool:prefetch");
        let mut missing = Vec::new();
        for &a in addrs {
            match self.frames.get_mut(&a) {
                Some(frame) => {
                    self.clock += 1;
                    frame.last_used = self.clock;
                }
                None => missing.push(a),
            }
        }
        missing.sort_unstable();
        missing.dedup();
        let breaks = missing.windows(2).filter(|w| w[1] != w[0] + 1).count();
        let out = PrefetchOutcome {
            resident: addrs.len() - missing.len(),
            fetched: missing.len(),
            runs: if missing.is_empty() { 0 } else { breaks + 1 },
        };
        if missing.is_empty() {
            return Ok(out);
        }
        let cb = self.chunk_bytes;
        let mut frames: Vec<Vec<u8>> = missing.iter().map(|_| vec![0u8; cb]).collect();
        self.file.read_pieces(
            missing.iter().zip(&mut frames).map(|(&a, data)| (a * cb as u64, data.as_mut_slice())),
        )?;
        self.stats.misses += missing.len() as u64;
        for (addr, data) in missing.into_iter().zip(frames) {
            self.make_room()?;
            self.install(addr, data, false);
        }
        Ok(out)
    }

    /// Write all dirty frames back to the file (keeps them resident).
    pub fn flush(&mut self) -> Result<()> {
        // Deterministic order for reproducible I/O patterns.
        let mut dirty: Vec<u64> =
            self.frames.iter().filter(|(_, f)| f.dirty).map(|(&a, _)| a).collect();
        dirty.sort_unstable();
        for addr in dirty {
            let frame = self.frames.get_mut(&addr).expect("listed");
            self.file.write_at(addr * self.chunk_bytes as u64, &frame.data)?;
            frame.dirty = false;
            self.stats.writebacks += 1;
        }
        Ok(())
    }

    /// Flush and drop every frame.
    pub fn clear(&mut self) -> Result<()> {
        self.flush()?;
        self.frames.clear();
        Ok(())
    }
}

/// A serial DRX array with an Mpool chunk cache between the API and the
/// file. Same semantics as [`DrxFile`]; element accesses hit the pool.
///
/// Dirty chunks are written back on eviction, [`CachedDrxFile::flush`], or
/// drop (best effort — call `flush` to observe errors).
pub struct CachedDrxFile<T: Element> {
    inner: DrxFile<T>,
    pool: ChunkPool,
}

impl<T: Element> CachedDrxFile<T> {
    /// Wrap an open array with a pool of `capacity_chunks` chunks.
    pub fn new(inner: DrxFile<T>, capacity_chunks: usize) -> Result<Self> {
        let chunk_bytes = inner.meta().chunk_bytes() as usize;
        let pool = ChunkPool::new(inner.payload_file().clone(), chunk_bytes, capacity_chunks)?;
        Ok(CachedDrxFile { inner, pool })
    }

    pub fn meta(&self) -> &drx_core::ArrayMeta {
        self.inner.meta()
    }

    pub fn bounds(&self) -> &[usize] {
        self.inner.bounds()
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    pub fn reset_pool_stats(&mut self) {
        self.pool.reset_stats()
    }

    /// Read one element through the cache.
    pub fn get(&mut self, index: &[usize]) -> Result<T> {
        let (addr, within) = self.inner.meta().locate_element(index)?;
        let mut buf = vec![0u8; T::SIZE];
        self.pool.read(addr, within as usize * T::SIZE, &mut buf)?;
        Ok(T::read_le(&buf))
    }

    /// Write one element through the cache (write-back).
    pub fn set(&mut self, index: &[usize], value: T) -> Result<()> {
        let (addr, within) = self.inner.meta().locate_element(index)?;
        let mut buf = Vec::with_capacity(T::SIZE);
        value.write_le(&mut buf);
        self.pool.write(addr, within as usize * T::SIZE, &buf)
    }

    /// Extend a dimension: flushes the pool first (the payload may be
    /// resized), then extends the underlying array.
    pub fn extend(&mut self, dim: usize, by: usize) -> Result<()> {
        self.pool.flush()?;
        self.inner.extend(dim, by)
    }

    /// Read a region through the cache: the region is checked and planned
    /// like every other surface's, and each chunk is scattered straight
    /// from its resident frame, in address order.
    pub fn read_region(&mut self, region: &Region, layout: Layout) -> Result<Vec<T>> {
        let meta = self.inner.meta();
        let plan = ChunkPlan::for_region(meta, region)?;
        let strides = layout.strides(&region.extents());
        let mut out = vec![T::default(); region.volume() as usize];
        let (chunk_strides, lo) = (meta.chunking().strides(), region.lo());
        let boxes = plan.boxes(0..plan.len(), meta.chunking(), region);
        for (addr, b) in plan.addrs().zip(boxes) {
            let frame = self.pool.frame(addr)?;
            let (chunk_box, Some(valid)) = b? else { continue };
            crate::kernels::scatter_chunk(
                frame,
                chunk_box.lo(),
                chunk_strides,
                &mut out,
                lo,
                &strides,
                &valid,
            );
        }
        Ok(out)
    }

    /// Write back all dirty chunks. The metadata needs no write: `extend`
    /// commits it.
    pub fn flush(&mut self) -> Result<()> {
        self.pool.flush()
    }

    /// Flush and unwrap the underlying file.
    pub fn into_inner(mut self) -> Result<DrxFile<T>> {
        self.pool.clear()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drx_pfs::fault::Injector;
    use drx_pfs::{Pfs, PfsConfig, PfsError};
    use std::sync::Arc;

    fn pfs() -> Pfs {
        Pfs::memory(2, 256).unwrap()
    }

    /// [`pfs`] with a fault injector whose `set_down` takes a stripe
    /// server offline and back.
    fn faulty_pfs() -> (Pfs, Arc<Injector>) {
        let inj = Arc::new(Injector::inert());
        let config = PfsConfig {
            n_servers: 2,
            stripe_size: 256,
            injector: Some(Arc::clone(&inj)),
            ..Default::default()
        };
        (Pfs::new(config).unwrap(), inj)
    }

    fn is_unavailable(e: &MpError) -> bool {
        matches!(e, MpError::Pfs(PfsError::Unavailable { server: 0 }))
    }

    #[test]
    fn pool_read_write_and_hit_tracking() {
        let fs = pfs();
        let f = fs.create("p").unwrap();
        f.set_len(1024).unwrap();
        let mut pool = ChunkPool::new(f, 64, 4).unwrap();
        let mut buf = [0u8; 8];
        pool.read(0, 0, &mut buf).unwrap(); // miss
        pool.read(0, 8, &mut buf).unwrap(); // hit
        pool.write(0, 0, &[1; 8]).unwrap(); // hit
        assert_eq!(pool.stats(), PoolStats { hits: 2, misses: 1, evictions: 0, writebacks: 0 });
        pool.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [1; 8]);
    }

    #[test]
    fn lru_eviction_writes_back_dirty_frames() {
        let fs = pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 8).unwrap();
        let mut pool = ChunkPool::new(f.clone(), 64, 2).unwrap();
        pool.write(0, 0, &[7; 4]).unwrap(); // dirty chunk 0
        let mut buf = [0u8; 4];
        pool.read(1, 0, &mut buf).unwrap();
        pool.read(2, 0, &mut buf).unwrap(); // evicts chunk 0 (LRU)
        let st = pool.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.writebacks, 1);
        // The write-back is visible through the raw file.
        assert_eq!(f.read_vec(0, 4).unwrap(), vec![7; 4]);
        // Chunk 0 faults back in with its data intact.
        pool.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [7; 4]);
    }

    #[test]
    fn flush_is_deterministic_and_clears_dirty() {
        let fs = pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 4).unwrap();
        let mut pool = ChunkPool::new(f.clone(), 64, 4).unwrap();
        pool.write(3, 0, &[3]).unwrap();
        pool.write(1, 0, &[1]).unwrap();
        fs.reset_stats();
        pool.flush().unwrap();
        assert_eq!(pool.stats().writebacks, 2);
        // Second flush writes nothing.
        pool.flush().unwrap();
        assert_eq!(pool.stats().writebacks, 2);
        assert_eq!(f.read_vec(64, 1).unwrap(), vec![1]);
        assert_eq!(f.read_vec(192, 1).unwrap(), vec![3]);
    }

    #[test]
    fn frames_count_like_read_put_and_write() {
        // One access sequence through the copying calls (pool `a`) and
        // through frame borrows (pool `b`) must leave identical counters
        // after every step, and identical files after a flush.
        let fs = pfs();
        let make = |name: &str| {
            let f = fs.create(name).unwrap();
            f.set_len(64 * 6).unwrap();
            (f.clone(), ChunkPool::new(f, 64, 2).unwrap())
        };
        let (fa, mut a) = make("a");
        let (fb, mut b) = make("b");
        // (0 = read / frame, 1 = put / overwriting frame_mut,
        //  2 = write / read-modify-write frame_mut, chunk address)
        let ops = [(0, 0), (0, 0), (1, 1), (2, 2), (0, 1), (1, 3), (2, 0), (0, 4), (1, 4), (2, 5)];
        let mut buf = [0u8; 64];
        for (op, addr) in ops {
            let v = [addr as u8 + 1; 64];
            match op {
                0 => {
                    a.read(addr, 0, &mut buf).unwrap();
                    assert_eq!(b.frame(addr).unwrap(), &buf[..]);
                }
                1 => {
                    a.put(addr, &v).unwrap();
                    b.frame_mut(addr, true).unwrap().copy_from_slice(&v);
                }
                _ => {
                    a.write(addr, 8, &v[..8]).unwrap();
                    b.frame_mut(addr, false).unwrap()[8..16].copy_from_slice(&v[..8]);
                }
            }
            assert_eq!(a.stats(), b.stats(), "op {op} on chunk {addr}");
        }
        let st = a.stats();
        assert!(st.hits > 0 && st.misses > 0 && st.evictions > 0 && st.writebacks > 0, "{st:?}");
        a.flush().unwrap();
        b.flush().unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(fa.read_vec(0, 64 * 6).unwrap(), fb.read_vec(0, 64 * 6).unwrap());
    }

    #[test]
    fn overwriting_frame_mut_installs_without_io() {
        let fs = pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 4).unwrap();
        f.write_at(64, &[5; 64]).unwrap();
        let mut pool = ChunkPool::new(f.clone(), 64, 2).unwrap();
        fs.reset_stats();
        assert_eq!(pool.frame_mut(1, true).unwrap(), &[0u8; 64][..]);
        assert_eq!(fs.stats().total_requests(), 0);
        // Without `overwrite`, the current contents are faulted in.
        assert_eq!(pool.frame_mut(3, false).unwrap(), &[0u8; 64][..]);
        assert_eq!(fs.stats().total_requests(), 1);
        pool.flush().unwrap();
        assert_eq!(f.read_vec(64, 64).unwrap(), vec![0; 64]);
    }

    #[test]
    fn out_of_range_chunk_access_is_rejected() {
        let fs = pfs();
        let f = fs.create("p").unwrap();
        f.set_len(128).unwrap();
        let mut pool = ChunkPool::new(f, 64, 2).unwrap();
        let mut buf = [0u8; 65];
        assert!(pool.read(0, 0, &mut buf).is_err());
        assert!(pool.write(0, 60, &[0; 8]).is_err());
        assert!(ChunkPool::new(fs.create("q").unwrap(), 0, 2).is_err());
    }

    #[test]
    fn failed_eviction_writeback_keeps_the_dirty_frame() {
        let (fs, inj) = faulty_pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 8).unwrap();
        let mut pool = ChunkPool::new(f.clone(), 64, 2).unwrap();
        pool.write(0, 0, &[7; 4]).unwrap(); // dirty chunk 0
        let mut buf = [0u8; 4];
        pool.read(1, 0, &mut buf).unwrap();
        // Take server 0 (where chunk 0 lives) down.
        inj.set_down(0, true);
        // Faulting in chunk 2 tries to evict chunk 0 (LRU, dirty); the
        // write-back fails, and the dirty frame must survive.
        let err = pool.read(2, 0, &mut buf).unwrap_err();
        assert!(is_unavailable(&err), "got: {err}");
        pool.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [7; 4], "dirty data lost by failed eviction");
        // Once the server is back, flush persists it.
        inj.set_down(0, false);
        pool.flush().unwrap();
        assert_eq!(f.read_vec(0, 4).unwrap(), vec![7; 4]);
    }

    #[test]
    fn failed_fetch_counts_no_miss() {
        let (fs, inj) = faulty_pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 4).unwrap();
        let mut pool = ChunkPool::new(f, 64, 4).unwrap();
        inj.set_down(0, true);
        let mut buf = [0u8; 4];
        let err = pool.read(0, 0, &mut buf).unwrap_err();
        assert!(is_unavailable(&err), "got: {err}");
        assert_eq!(pool.stats().misses, 0, "failed fetch must not count as a miss");
        inj.set_down(0, false);
        pool.read(0, 0, &mut buf).unwrap();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn cached_file_matches_uncached_semantics() {
        let fs = pfs();
        let inner: DrxFile<i64> = DrxFile::create(&fs, "c", &[2, 3], &[8, 9]).unwrap();
        let mut cached = CachedDrxFile::new(inner, 4).unwrap();
        for idx in Region::new(vec![0, 0], vec![8, 9]).unwrap().iter() {
            cached.set(&idx, (idx[0] * 9 + idx[1]) as i64).unwrap();
        }
        cached.extend(1, 3).unwrap(); // flushes, then grows
        for i in 0..8 {
            for j in 0..9 {
                assert_eq!(cached.get(&[i, j]).unwrap(), (i * 9 + j) as i64);
            }
            assert_eq!(cached.get(&[i, 11]).unwrap(), 0);
        }
        let region = Region::new(vec![2, 2], vec![6, 8]).unwrap();
        let via_cache = cached.read_region(&region, Layout::Fortran).unwrap();
        // Flush, then compare against the plain path.
        let plain = cached.into_inner().unwrap();
        assert_eq!(plain.read_region(&region, Layout::Fortran).unwrap(), via_cache);
        // Everything persisted to the file.
        drop(plain);
        let reread: DrxFile<i64> = DrxFile::open(&fs, "c").unwrap();
        assert_eq!(reread.get(&[7, 8]).unwrap(), (7 * 9 + 8) as i64);
    }

    #[test]
    fn cached_region_reads_check_the_element_bounds() {
        // 6×6 elements in 4×4 chunks: the edge chunks carry slack rows and
        // columns 6..8 that a region must not reach.
        let fs = pfs();
        let inner: DrxFile<i64> = DrxFile::create(&fs, "b", &[4, 4], &[6, 6]).unwrap();
        let mut cached = CachedDrxFile::new(inner, 4).unwrap();
        for hi in [8, 9] {
            let region = Region::new(vec![0, 0], vec![hi, hi]).unwrap();
            let err = cached.read_region(&region, Layout::C).unwrap_err();
            assert!(
                matches!(err, MpError::Core(drx_core::DrxError::IndexOutOfBounds { .. })),
                "region [0,{hi})²: {err}"
            );
        }
        let wrong_rank = Region::new(vec![0], vec![2]).unwrap();
        let err = cached.read_region(&wrong_rank, Layout::C).unwrap_err();
        assert!(matches!(err, MpError::Core(drx_core::DrxError::RankMismatch { .. })), "{err}");
        let full = Region::new(vec![0, 0], vec![6, 6]).unwrap();
        assert_eq!(cached.read_region(&full, Layout::C).unwrap().len(), 36);
    }

    #[test]
    fn locality_turns_pfs_traffic_into_hits() {
        let fs = pfs();
        let mut inner: DrxFile<f64> = DrxFile::create(&fs, "c", &[4, 4], &[16, 16]).unwrap();
        inner.fill_with(|i| (i[0] + i[1]) as f64).unwrap();
        let mut cached = CachedDrxFile::new(inner, 8).unwrap();
        // Walk one chunk's elements repeatedly: 1 miss, many hits.
        cached.reset_pool_stats();
        fs.reset_stats();
        for _ in 0..10 {
            for i in 0..4 {
                for j in 0..4 {
                    cached.get(&[i, j]).unwrap();
                }
            }
        }
        let st = cached.pool_stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits, 159);
        assert!(st.hit_rate() > 0.99);
        // Only one chunk-sized PFS read happened for all 160 accesses.
        assert_eq!(fs.stats().total_requests(), 1);
        assert_eq!(fs.stats().total_bytes(), 4 * 4 * 8);
    }
}
