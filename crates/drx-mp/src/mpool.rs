//! Chunk buffer pool — the stand-in for the BerkeleyDB **Mpool** subsystem
//! the serial DRX library uses for I/O caching (paper §I: "memory resident
//! extendible arrays with I/O caching using the BerkeleyDB Mpool
//! sub-system").
//!
//! [`ChunkPool`] caches fixed-size chunks of a [`PfsFile`] with dirty
//! tracking and write-back, and exposes hit/miss/eviction statistics.
//! [`CachedDrxFile`] layers it under the serial array API so element
//! accesses with locality stop paying one PFS round trip each.
//!
//! Replacement is CLOCK (second chance). The frames form a table of at most
//! `capacity` slots, each with a reference bit that a hit sets; an index
//! maps a resident chunk address to its slot. A miss advances one hand over
//! the slots, clearing set bits, and takes the first slot whose bit is
//! clear, so an eviction costs a bounded number of steps, not a scan of
//! every frame. The slot's buffer is reused in place: once the table is
//! full a miss allocates no chunk, and a small array never allocates more
//! frames than it touches.

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

/// One slot of the frame table.
#[derive(Default)]
struct Frame {
    /// The chunk held, or `None` while the slot is free.
    addr: Option<u64>,
    data: Box<[u8]>,
    dirty: bool,
    /// Second-chance bit: a hit sets it, the passing hand clears it.
    referenced: bool,
    /// Out of the hand's reach for the rest of a `prefetch`.
    pinned: bool,
}

/// A CLOCK (second-chance) pool of fixed-size chunks over a PFS file.
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
    /// The frame table: grows one slot per miss up to `capacity`, then
    /// every miss reuses the buffer of the slot the hand evicts.
    frames: Vec<Frame>,
    /// Resident chunk address → slot.
    index: HashMap<u64, usize>,
    /// The next slot the clock examines.
    hand: usize,
    stats: PoolStats,
    /// Slots the hand has examined, to bound the cost of an eviction.
    #[cfg(test)]
    hand_steps: u64,
}

impl ChunkPool {
    /// Create a pool holding up to `capacity` chunks of `chunk_bytes` each.
    /// Frame buffers are allocated as misses first need them.
    pub fn new(file: PfsFile, chunk_bytes: usize, capacity: usize) -> Result<Self> {
        if chunk_bytes == 0 || capacity == 0 {
            return Err(MpError::Invalid("chunk size and capacity must be positive".into()));
        }
        Ok(ChunkPool {
            file,
            chunk_bytes,
            capacity,
            frames: Vec::new(),
            index: HashMap::new(),
            hand: 0,
            stats: PoolStats::default(),
            #[cfg(test)]
            hand_steps: 0,
        })
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Whether chunk `addr` is resident (does not touch reference bits or
    /// stats).
    pub fn contains(&self, addr: u64) -> bool {
        self.index.contains_key(&addr)
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    fn offset(&self, addr: u64) -> u64 {
        addr * self.chunk_bytes as u64
    }

    /// Ensure chunk `addr` is resident and return its slot; on a miss, read
    /// it into the slot [`ChunkPool::make_room`] frees.
    fn fault_in(&mut self, addr: u64) -> Result<usize> {
        if let Some(&slot) = self.index.get(&addr) {
            self.stats.hits += 1;
            self.frames[slot].referenced = true;
            return Ok(slot);
        }
        let slot = self.make_room()?;
        // A failed read leaves the slot free, and the miss is recorded only
        // once the fetch succeeded: the counters describe work that
        // actually happened.
        self.file.read_at(self.offset(addr), &mut self.frames[slot].data)?;
        self.stats.misses += 1;
        self.install(slot, addr, false);
        Ok(slot)
    }

    /// Free a slot for a new chunk: a fresh one while the table is below
    /// capacity, else the first unpinned slot the hand reaches with its
    /// reference bit clear, clearing the bits it passes (so at most two
    /// turns). A dirty victim is written back first.
    fn make_room(&mut self) -> Result<usize> {
        if self.frames.len() < self.capacity {
            let data = vec![0u8; self.chunk_bytes].into_boxed_slice();
            self.frames.push(Frame { data, ..Frame::default() });
            return Ok(self.frames.len() - 1);
        }
        for _ in 0..2 * self.capacity {
            #[cfg(test)]
            {
                self.hand_steps += 1;
            }
            let slot = self.hand;
            let frame = &mut self.frames[slot];
            if !frame.pinned && !std::mem::take(&mut frame.referenced) {
                // On a failed write-back the hand stays on the victim.
                self.evict(slot)?;
                self.hand = (slot + 1) % self.capacity;
                return Ok(slot);
            }
            self.hand = (slot + 1) % self.capacity;
        }
        Err(MpError::Invalid(format!("all {} frames are pinned", self.capacity)))
    }

    /// Hold chunk `addr` in `slot` (freed by the caller).
    fn install(&mut self, slot: usize, addr: u64, dirty: bool) {
        let frame = &mut self.frames[slot];
        frame.addr = Some(addr);
        frame.dirty = dirty;
        self.index.insert(addr, slot);
    }

    /// Empty `slot`, writing its chunk back first if dirty.
    fn evict(&mut self, slot: usize) -> Result<()> {
        // Trace hook for the drx-sched schedule explorer (no-op otherwise).
        #[cfg(drx_sched)]
        drx_sched::probe("mpool:evict");
        let frame = &self.frames[slot];
        let Some(addr) = frame.addr else { return Ok(()) };
        // Write back *before* dropping the chunk: if the write-back fails
        // (transient PFS fault, down stripe server) the dirty data must
        // stay in the pool so a later flush or retried eviction can still
        // persist it.
        if frame.dirty {
            self.file.write_at(self.offset(addr), &frame.data)?;
            self.stats.writebacks += 1;
        }
        self.index.remove(&addr);
        let frame = &mut self.frames[slot];
        (frame.addr, frame.dirty) = (None, false);
        self.stats.evictions += 1;
        Ok(())
    }

    /// Borrow the resident image of chunk `addr`, faulting it in first on
    /// a miss. Counts exactly as [`ChunkPool::read`] does: one hit, or one
    /// miss plus any eviction it forces. Callers copy straight out of the
    /// frame; no chunk-sized buffer is made.
    pub fn frame(&mut self, addr: u64) -> Result<&[u8]> {
        let slot = self.fault_in(addr)?;
        Ok(&self.frames[slot].data)
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
        let slot = if overwrite && !self.index.contains_key(&addr) {
            let slot = self.make_room()?;
            self.frames[slot].data.fill(0);
            self.stats.misses += 1;
            self.install(slot, addr, true);
            slot
        } else {
            self.fault_in(addr)?
        };
        let frame = &mut self.frames[slot];
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
    /// frames they take over. Runs of *consecutive* missing addresses
    /// become single file extents (the PFS layer joins adjacent pieces),
    /// so N per-chunk round trips turn into one request per run, and the
    /// PFS worker pool services distinct runs in parallel.
    ///
    /// Accounting: each fetched chunk counts one miss. Chunks already
    /// resident count nothing (the later [`ChunkPool::frame`] of each
    /// records its own hit). A batch of at most `capacity` distinct chunks
    /// is pinned for the call, so it is wholly resident afterwards. A
    /// larger batch is fetched `capacity` chunks at a time and evicts its
    /// own first chunks: callers window their requests at `capacity`.
    pub fn prefetch(&mut self, addrs: &[u64]) -> Result<PrefetchOutcome> {
        // Trace hook for the drx-sched schedule explorer (no-op otherwise).
        #[cfg(drx_sched)]
        drx_sched::probe("mpool:prefetch");
        let (mut missing, mut resident) = (Vec::new(), Vec::new());
        for &a in addrs {
            match self.index.get(&a) {
                Some(&slot) => resident.push(slot),
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
        resident.sort_unstable();
        resident.dedup();
        if resident.len() + missing.len() > self.capacity {
            resident.clear();
        }
        self.set_pinned(&resident, true);
        let fetched = missing.chunks(self.capacity).try_for_each(|group| self.fetch(group));
        self.set_pinned(&resident, false);
        fetched.map(|()| out)
    }

    fn set_pinned(&mut self, slots: &[usize], pinned: bool) {
        for &slot in slots {
            self.frames[slot].pinned = pinned;
        }
    }

    /// Read the sorted, non-resident chunks of `group` (at most `capacity`)
    /// into slots freed for them, with one `read_pieces` call. On failure
    /// the freed slots stay free and no miss is counted.
    fn fetch(&mut self, group: &[u64]) -> Result<()> {
        let mut slots = Vec::with_capacity(group.len());
        let mut result = group.iter().try_for_each(|_| {
            let slot = self.make_room()?;
            self.frames[slot].pinned = true;
            slots.push(slot);
            Ok(())
        });
        if result.is_ok() {
            // The buffers leave their slots for the read, so it can fill
            // them all at once in address order; they are moved, not copied.
            let mut bufs: Vec<Box<[u8]>> =
                slots.iter().map(|&slot| std::mem::take(&mut self.frames[slot].data)).collect();
            let pieces =
                group.iter().zip(&mut bufs).map(|(&a, data)| (self.offset(a), &mut **data));
            result = self.file.read_pieces(pieces).map_err(MpError::from);
            for (&slot, data) in slots.iter().zip(bufs) {
                self.frames[slot].data = data;
            }
        }
        for (&slot, &addr) in slots.iter().zip(group) {
            self.frames[slot].pinned = false;
            if result.is_ok() {
                self.install(slot, addr, false);
            }
        }
        if result.is_ok() {
            self.stats.misses += group.len() as u64;
        }
        result
    }

    /// Write all dirty frames back to the file (keeps them resident).
    pub fn flush(&mut self) -> Result<()> {
        // Deterministic order for reproducible I/O patterns.
        let mut dirty: Vec<(u64, usize)> = self
            .frames
            .iter()
            .enumerate()
            .filter_map(|(slot, f)| Some((f.addr.filter(|_| f.dirty)?, slot)))
            .collect();
        dirty.sort_unstable();
        for (addr, slot) in dirty {
            self.file.write_at(self.offset(addr), &self.frames[slot].data)?;
            self.frames[slot].dirty = false;
            self.stats.writebacks += 1;
        }
        Ok(())
    }

    /// Flush and drop every frame, buffers included.
    pub fn clear(&mut self) -> Result<()> {
        self.flush()?;
        self.frames.clear();
        self.index.clear();
        self.hand = 0;
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
    fn clock_eviction_writes_back_dirty_frames() {
        let fs = pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 8).unwrap();
        let mut pool = ChunkPool::new(f.clone(), 64, 2).unwrap();
        pool.write(0, 0, &[7; 4]).unwrap(); // dirty chunk 0
        let mut buf = [0u8; 4];
        pool.read(1, 0, &mut buf).unwrap();
        pool.read(2, 0, &mut buf).unwrap(); // evicts chunk 0 (bit clear, under the hand)
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
        // Faulting in chunk 2 tries to evict chunk 0 (under the hand,
        // dirty); the write-back fails, and the dirty frame must survive.
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

    /// The most hand steps one miss took: a pool of `capacity` 16-byte
    /// chunks is filled, then 1000 fresh chunks miss, each after a hit on
    /// every chunk of a hot set held in the first slots.
    fn max_steps_per_eviction(capacity: usize, hot: u64) -> u64 {
        let fs = Pfs::memory(2, 4096).unwrap();
        let f = fs.create("p").unwrap();
        let chunks = capacity as u64 + 1000;
        f.set_len(chunks * 16).unwrap();
        let mut pool = ChunkPool::new(f, 16, capacity).unwrap();
        for a in 0..capacity as u64 {
            pool.frame(a).unwrap();
        }
        assert_eq!(pool.hand_steps, 0, "filling the table moves no hand");
        let mut max = 0;
        for a in capacity as u64..chunks {
            for h in 0..hot {
                pool.frame(h).unwrap();
            }
            let before = pool.hand_steps;
            pool.frame(a).unwrap();
            max = max.max(pool.hand_steps - before);
        }
        let st = pool.stats();
        assert_eq!((st.evictions, st.misses), (1000, chunks));
        max
    }

    #[test]
    fn eviction_steps_do_not_grow_with_capacity() {
        // The hand passes the hot set (clearing its bits) once per turn and
        // takes the next slot: hot + 1 steps at most, whatever the capacity.
        // A victim scan over every frame would take 65,536 steps here.
        let small = max_steps_per_eviction(64, 8);
        let large = max_steps_per_eviction(65_536, 8);
        assert_eq!(small, 9);
        assert_eq!(large, small);
    }

    #[test]
    fn frames_grow_on_demand() {
        let fs = pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 8).unwrap();
        let mut pool = ChunkPool::new(f, 64, 4096).unwrap();
        pool.prefetch(&[1, 2]).unwrap();
        pool.frame(5).unwrap();
        assert_eq!(pool.frames.len(), 3, "one buffer per chunk touched, not per capacity");
        pool.clear().unwrap();
        assert!(pool.frames.is_empty() && pool.is_empty());
    }

    #[test]
    fn prefetch_keeps_the_whole_batch_resident() {
        let fs = pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 16).unwrap();
        let mut pool = ChunkPool::new(f, 64, 4).unwrap();
        for a in (0..4).chain(0..4) {
            pool.frame(a).unwrap(); // the second round sets every bit
        }
        // The hand clears all four bits and comes back to slot 0: only the
        // pins keep chunks 0 and 1, members of the batch, from eviction.
        let out = pool.prefetch(&[0, 1, 8, 9]).unwrap();
        assert_eq!((out.resident, out.fetched, out.runs), (2, 2, 1));
        for a in [0, 1, 8, 9] {
            assert!(pool.contains(a), "batch member {a} evicted");
        }
        assert!(!pool.contains(2) && !pool.contains(3));
        // A batch of exactly `capacity` new chunks is resident too.
        let out = pool.prefetch(&[12, 5, 6, 7]).unwrap();
        assert_eq!((out.fetched, out.runs), (4, 2));
        assert!([5, 6, 7, 12].iter().all(|&a| pool.contains(a)));
        assert_eq!(pool.stats().misses, 4 + 2 + 4);
    }

    #[test]
    fn oversized_prefetch_evicts_its_own_first_chunks() {
        let fs = pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 16).unwrap();
        let mut pool = ChunkPool::new(f, 64, 2).unwrap();
        let out = pool.prefetch(&[0, 1, 2, 3, 4]).unwrap();
        assert_eq!((out.fetched, out.runs), (5, 1));
        assert_eq!(pool.len(), 2);
        assert!(pool.contains(4));
        assert_eq!(pool.stats().misses, 5);
    }

    #[test]
    fn failed_prefetch_installs_nothing_and_counts_no_miss() {
        // 64-byte chunks on 256-byte stripes: chunks 0–3 live on server 0,
        // chunks 4–7 on server 1.
        let (fs, inj) = faulty_pfs();
        let f = fs.create("p").unwrap();
        f.set_len(64 * 8).unwrap();
        f.write_at(0, &[3; 64]).unwrap();
        let mut pool = ChunkPool::new(f, 64, 2).unwrap();
        pool.prefetch(&[4, 5]).unwrap();
        inj.set_down(0, true);
        let err = pool.prefetch(&[0, 1]).unwrap_err();
        assert!(is_unavailable(&err), "got: {err}");
        assert!(!pool.contains(0) && !pool.contains(1));
        let st = pool.stats();
        assert_eq!((st.misses, st.evictions), (2, 2), "the victims went, no miss counted");
        assert!(pool.is_empty());
        inj.set_down(0, false);
        pool.prefetch(&[0, 1]).unwrap();
        assert_eq!(pool.stats().misses, 4);
        assert_eq!(pool.frame(0).unwrap(), &[3; 64][..]);
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
