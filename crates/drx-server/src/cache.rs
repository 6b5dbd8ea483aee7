//! Shared chunk cache: one set of frames for every session of an array.
//!
//! One [`SharedChunkCache`] sits in front of each array's `.xta` payload
//! file, wrapping a `drx_mp::ChunkPool` (the Mpool stand-in, a CLOCK frame
//! table) behind one mutex so every session of the server shares one set
//! of frames. Region I/O works on those frames in place
//! ([`SharedChunkCache::read_frames`], [`SharedChunkCache::write_frames`]);
//! no chunk is copied out.
//!
//! Each call is one critical section: it faults the request's misses in
//! with `ChunkPool::prefetch`, which reads each run of consecutive chunk
//! addresses with a single `drx-pfs` request straight into the buffers of
//! the frames it evicts, then walks the frames and credits the session's
//! counters, all under the one guard. A request larger than the cache is
//! walked in windows of `capacity` chunks; the pool pins a window for its
//! prefetch, so each chunk is fetched once. Misses of different sessions
//! are not merged: on the `serve` workload only 0.45% of the fetching
//! batches of a group-commit queue held two sessions' misses, while every
//! hit paid for the queue.
//!
//! Statistics: the pool's cumulative counters are the *global* view; the
//! per-session view is credited with the stat delta of each call the
//! session makes, in the same critical section.

use crate::error::Result;
use drx_mp::{ChunkPool, PoolStats};
use drx_pfs::PfsFile;
#[cfg(drx_sched)]
use drx_sched::sync::Mutex;
#[cfg(not(drx_sched))]
use parking_lot::Mutex;
use std::collections::HashMap;

/// Everything the cache guards: the frames and the counters describing
/// them, updated together.
struct Shared {
    pool: ChunkPool,
    /// Per-session counters.
    sessions: HashMap<u64, PoolStats>,
    /// Prefetch calls that fetched anything, and the chunks they fetched.
    batches: u64,
    batched_chunks: u64,
}

impl Shared {
    /// Run `op` and credit the pool counters it moved to `session`, also
    /// when it fails part way.
    fn credited<R>(&mut self, session: u64, op: impl FnOnce(&mut Self) -> Result<R>) -> Result<R> {
        let before = self.pool.stats();
        let out = op(self);
        let delta = self.pool.stats().delta_since(&before);
        self.sessions.entry(session).or_default().merge(&delta);
        out
    }

    /// Fault the misses among `addrs` in as one batch; a batch is counted
    /// only when it fetched something.
    fn prefetch(&mut self, addrs: &[u64]) -> Result<()> {
        let outcome = self.pool.prefetch(addrs)?;
        if outcome.fetched > 0 {
            self.batches += 1;
            self.batched_chunks += outcome.fetched as u64;
        }
        Ok(())
    }
}

/// A `ChunkPool` shared by all sessions of one array, with per-session
/// statistics.
pub struct SharedChunkCache {
    chunk_bytes: usize,
    capacity: usize,
    // lock-class: shared => ChunkPool
    shared: Mutex<Shared>,
}

impl SharedChunkCache {
    pub fn new(file: PfsFile, chunk_bytes: usize, capacity: usize) -> Result<Self> {
        let pool = ChunkPool::new(file, chunk_bytes, capacity)?;
        let shared = Shared { pool, sessions: HashMap::new(), batches: 0, batched_chunks: 0 };
        Ok(SharedChunkCache { chunk_bytes, capacity, shared: Mutex::new(shared) })
    }

    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Fetch batches (prefetch calls that read at least one chunk) so far.
    pub fn coalesced_batches(&self) -> u64 {
        self.shared.lock().batches
    }

    /// Chunks faulted in by those batches.
    pub fn batched_chunks(&self) -> u64 {
        self.shared.lock().batched_chunks
    }

    pub fn global_stats(&self) -> PoolStats {
        self.shared.lock().pool.stats()
    }

    pub fn session_stats(&self, session: u64) -> PoolStats {
        self.shared.lock().sessions.get(&session).copied().unwrap_or_default()
    }

    pub fn drop_session(&self, session: u64) {
        self.shared.lock().sessions.remove(&session);
    }

    /// Visit the frames of `addrs` in order, under one guard: `f(i, frame)`
    /// gets chunk `addrs[i]`'s bytes in place, so no chunk is copied on the
    /// way through. Each window of `capacity` chunks has its misses faulted
    /// in as one batch before it is walked. `f` runs under the guard and
    /// must not block.
    pub fn read_frames(
        &self,
        session: u64,
        addrs: &[u64],
        mut f: impl FnMut(usize, &[u8]),
    ) -> Result<()> {
        self.shared.lock().credited(session, |s| {
            for (w, window) in addrs.chunks(self.capacity).enumerate() {
                s.prefetch(window)?;
                for (k, &a) in window.iter().enumerate() {
                    f(w * self.capacity + k, s.pool.frame(a)?);
                }
            }
            Ok(())
        })
    }

    /// Write through the frames of `addrs`, under one guard: `f(i, frame)`
    /// updates chunk `addrs[i]` in place and the frame turns dirty
    /// (write-back). A chunk with `full[i]` is one the caller overwrites
    /// entirely, so it is installed without I/O as [`ChunkPool::put`] does;
    /// the others are read-modify-written, the misses of each window of
    /// `capacity` chunks faulted in first as one batch. Each window visits
    /// its read-modify-written chunks first, in order, then its full ones:
    /// installing a full chunk may evict, and must not evict a fetched
    /// chunk before it is written.
    ///
    /// A read-modify-write counts its read access and its write access; a
    /// full overwrite counts one access, as `put` does.
    pub fn write_frames(
        &self,
        session: u64,
        addrs: &[u64],
        full: &[bool],
        mut f: impl FnMut(usize, &mut [u8]),
    ) -> Result<()> {
        self.shared.lock().credited(session, |s| {
            for (w, (window, full)) in
                addrs.chunks(self.capacity).zip(full.chunks(self.capacity)).enumerate()
            {
                let partial: Vec<u64> =
                    window.iter().zip(full).filter(|&(_, &full)| !full).map(|(&a, _)| a).collect();
                s.prefetch(&partial)?;
                for pass in [false, true] {
                    for (k, &a) in window.iter().enumerate().filter(|&(k, _)| full[k] == pass) {
                        if !pass {
                            s.pool.frame(a)?;
                        }
                        f(w * self.capacity + k, s.pool.frame_mut(a, pass)?);
                    }
                }
            }
            Ok(())
        })
    }

    /// Read whole chunks, faulting misses in as one batch per window.
    /// Returns the chunks' bytes in the order of `addrs`.
    pub fn read_chunks(&self, session: u64, addrs: &[u64]) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(addrs.len());
        self.read_frames(session, addrs, |_, frame| out.push(frame.to_vec()))?;
        Ok(out)
    }

    /// Replace one whole chunk (write-back; no read-modify-write).
    pub fn put_chunk(&self, session: u64, addr: u64, data: &[u8]) -> Result<()> {
        self.shared.lock().credited(session, |s| Ok(s.pool.put(addr, data)?))
    }

    /// Write all dirty frames back to the payload file.
    pub fn flush(&self) -> Result<()> {
        self.shared.lock().pool.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drx_pfs::Pfs;
    use std::sync::Arc;
    use std::thread;

    const CB: usize = 64;

    fn cache(chunks: usize, capacity: usize) -> (Pfs, Arc<SharedChunkCache>) {
        let pfs = Pfs::memory(2, 4096).unwrap();
        let f = pfs.create("payload").unwrap();
        f.set_len((chunks * CB) as u64).unwrap();
        for a in 0..chunks {
            f.write_at((a * CB) as u64, &[a as u8; CB]).unwrap();
        }
        let cache = Arc::new(SharedChunkCache::new(f, CB, capacity).unwrap());
        (pfs, cache)
    }

    fn bytes_read(pfs: &Pfs) -> u64 {
        pfs.stats().per_server.iter().map(|s| s.bytes_read).sum()
    }

    #[test]
    fn read_larger_than_the_cache_fetches_each_chunk_once() {
        // Eight chunks through four frames: two windows of one batch each.
        let (pfs, cache) = cache(8, 4);
        pfs.reset_stats();
        let addrs: Vec<u64> = (0..8).collect();
        let mut seen = Vec::new();
        cache.read_frames(1, &addrs, |i, frame| seen.push((i, frame[0]))).unwrap();
        assert_eq!(seen, (0..8).map(|i| (i, i as u8)).collect::<Vec<_>>());
        let st = cache.global_stats();
        assert_eq!((st.misses, st.hits), (8, 8));
        assert_eq!(bytes_read(&pfs), 8 * CB as u64);
        assert_eq!(pfs.stats().total_requests(), 2);
        assert_eq!(cache.coalesced_batches(), 2);
        assert_eq!(cache.session_stats(1), st);
    }

    #[test]
    fn partial_writes_larger_than_the_cache_fetch_each_chunk_once() {
        let (pfs, cache) = cache(8, 4);
        pfs.reset_stats();
        let addrs: Vec<u64> = (0..8).collect();
        cache.write_frames(1, &addrs, &[false; 8], |i, frame| frame[0] = 0xF0 + i as u8).unwrap();
        cache.flush().unwrap();
        // Each chunk is read once for its read-modify-write and written
        // back once (the first window by eviction, the second by flush).
        let st = cache.global_stats();
        assert_eq!((st.misses, st.writebacks), (8, 8));
        assert_eq!(bytes_read(&pfs), 8 * CB as u64);
        assert_eq!(pfs.stats().total_bytes(), 16 * CB as u64);
        let got = pfs.open("payload").unwrap().read_vec(0, 8 * CB).unwrap();
        for (a, chunk) in got.chunks(CB).enumerate() {
            assert_eq!(chunk[0], 0xF0 + a as u8);
            assert!(chunk[1..].iter().all(|&b| b == a as u8), "chunk {a} lost its other bytes");
        }
    }

    #[test]
    fn full_chunks_of_a_window_evict_no_fetched_chunk() {
        let (pfs, cache) = cache(16, 4);
        cache.read_frames(1, &[4, 5, 6, 7], |_, _| ()).unwrap();
        // Chunk 8 evicts chunk 4 after a turn of the hand that clears every
        // bit; 6 and 7 are hit again. Chunk 5 is now the only frame with
        // its bit clear, and the hand stands on it.
        cache.read_frames(1, &[8], |_, _| ()).unwrap();
        cache.read_frames(1, &[6, 7], |_, _| ()).unwrap();
        let before = cache.global_stats();
        pfs.reset_stats();
        // Chunk 1 is fetched into chunk 5's slot. Three full overwrites
        // then evict three frames: none of them may be chunk 1 before it
        // is read-modify-written.
        let addrs = [0, 9, 10, 1];
        let full = [true, true, true, false];
        cache.write_frames(1, &addrs, &full, |i, frame| frame[0] = 0xA0 + i as u8).unwrap();
        let st = cache.global_stats();
        assert_eq!(st.misses - before.misses, 4, "chunk 1 fetched twice: {st:?}");
        assert_eq!(bytes_read(&pfs), CB as u64);
        cache.flush().unwrap();
        let file = pfs.open("payload").unwrap();
        for (i, &a) in addrs.iter().enumerate() {
            let chunk = file.read_vec(a * CB as u64, CB).unwrap();
            assert_eq!(chunk[0], 0xA0 + i as u8, "chunk {a}");
            let rest = if full[i] { 0 } else { a as u8 };
            assert!(chunk[1..].iter().all(|&b| b == rest), "chunk {a}");
        }
    }

    #[test]
    fn adjacent_chunks_fetch_as_one_request() {
        let (pfs, cache) = cache(16, 16);
        pfs.reset_stats();
        let got = cache.read_chunks(1, &[3, 4, 5, 6]).unwrap();
        assert_eq!(got.len(), 4);
        for (i, chunk) in got.iter().enumerate() {
            assert_eq!(chunk[0], 3 + i as u8);
        }
        // One coalesced read for the run of four, not four requests.
        assert_eq!(pfs.stats().total_requests(), 1);
        assert_eq!(cache.coalesced_batches(), 1);
        assert_eq!(cache.batched_chunks(), 4);
        // All four subsequent copies were pool hits.
        let st = cache.global_stats();
        assert_eq!(st.misses, 4);
        assert_eq!(st.hits, 4);
    }

    #[test]
    fn all_resident_reads_count_no_batch() {
        let (_pfs, cache) = cache(8, 8);
        cache.read_frames(1, &[0, 1], |_, _| ()).unwrap();
        assert_eq!((cache.coalesced_batches(), cache.batched_chunks()), (1, 2));
        // Every chunk is resident now: the walk fetches nothing.
        cache.read_frames(2, &[1, 0], |_, _| ()).unwrap();
        cache.write_frames(2, &[0], &[false], |_, frame| frame[0] = 9).unwrap();
        assert_eq!((cache.coalesced_batches(), cache.batched_chunks()), (1, 2));
        assert_eq!(cache.global_stats().hits, 2 + 2 + 2);
    }

    #[test]
    fn per_session_stats_are_separated() {
        let (_pfs, cache) = cache(8, 8);
        cache.read_chunks(1, &[0, 1]).unwrap();
        cache.read_chunks(2, &[0, 1]).unwrap(); // all hits
        let s1 = cache.session_stats(1);
        let s2 = cache.session_stats(2);
        assert_eq!(s1.misses, 2);
        assert_eq!(s2.misses, 0);
        assert_eq!(s2.hits, 2);
        let g = cache.global_stats();
        assert_eq!(g.hits + g.misses, s1.accesses() + s2.accesses());
        cache.drop_session(1);
        assert_eq!(cache.session_stats(1), PoolStats::default());
    }

    #[test]
    fn put_then_flush_persists() {
        let (_pfs, cache) = cache(4, 4);
        cache.put_chunk(1, 2, &[0xAA; CB]).unwrap();
        cache.flush().unwrap();
        let got = cache.read_chunks(1, &[2]).unwrap();
        assert_eq!(got[0], vec![0xAA; CB]);
    }

    #[test]
    fn concurrent_sessions_all_see_correct_data() {
        // Capacity above the 32-chunk file: nothing is ever evicted.
        let (pfs, cache) = cache(32, 64);
        pfs.reset_stats();
        let mut handles = Vec::new();
        for s in 0..8u64 {
            let cache = Arc::clone(&cache);
            handles.push(thread::spawn(move || {
                for round in 0..10 {
                    let base = (s + round) % 28;
                    let addrs = [base, base + 1, base + 2, base + 3];
                    let got = cache.read_chunks(s, &addrs).unwrap();
                    for (i, chunk) in got.iter().enumerate() {
                        assert!(chunk.iter().all(|&b| b == (base as u8) + i as u8));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 8 sessions × 10 rounds × 4 chunks = 320 chunk reads. The bases
        // s+round span 0..=16, so the distinct chunks touched are exactly
        // 0..=19: twenty faults total, and nothing is ever evicted.
        let naive = 320;
        assert!(
            pfs.stats().total_requests() < naive,
            "coalescing should beat one request per chunk read: {} vs {naive}",
            pfs.stats().total_requests()
        );
        let g = cache.global_stats();
        assert_eq!(g.misses, 20);
        assert_eq!(g.evictions, 0);
    }
}
