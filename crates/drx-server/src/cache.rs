//! Shared chunk cache with cross-session fetch coalescing.
//!
//! One [`SharedChunkCache`] sits in front of each array's `.xta` payload
//! file, wrapping a `drx_mp::ChunkPool` (the Mpool stand-in) behind a
//! mutex so every session of the server shares one set of frames. Region
//! I/O works on those frames in place ([`SharedChunkCache::read_frames`],
//! [`SharedChunkCache::write_frames`]); no chunk is copied out.
//!
//! Misses are gathered with a *group-commit* scheme: a session wanting
//! chunks enqueues the addresses and the first session to find no fetch in
//! flight becomes the **leader**, draining the queue and faulting the whole
//! batch in with `ChunkPool::prefetch` — which coalesces runs of
//! consecutive chunk addresses into single PFS reads. Sessions that arrive
//! while a fetch is in flight park on a condvar; their addresses ride in
//! the *next* batch, merged with whatever else accumulated. Under
//! concurrent load, adjacent reads from different sessions therefore
//! collapse into far fewer `drx-pfs` requests than one-request-per-chunk
//! naive I/O (observable via `PfsStats::total_requests`).
//!
//! Statistics: the pool's cumulative counters are the *global* view;
//! per-session views are accumulated from the stat deltas of each
//! operation the session performs. Misses incurred by a coalesced batch
//! are attributed to the session that led the batch.

use crate::error::Result;
use drx_mp::{ChunkPool, PoolStats};
use drx_pfs::PfsFile;
#[cfg(drx_sched)]
use drx_sched::sync::{Condvar, Mutex};
#[cfg(not(drx_sched))]
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default)]
struct FetchQueue {
    /// Chunk addresses wanted by parked sessions (deduplicated, sorted).
    wanted: BTreeSet<u64>,
    /// Whether a leader is currently fetching.
    in_flight: bool,
    /// Bumped when a batch completes, so waiters can detect progress.
    generation: u64,
}

/// A `ChunkPool` shared by all sessions of one array, with coalesced miss
/// handling and per-session statistics.
pub struct SharedChunkCache {
    // lock-class: pool => ChunkPool
    pool: Mutex<ChunkPool>,
    // lock-class: queue => CacheQueue
    queue: Mutex<FetchQueue>,
    fetched: Condvar,
    // lock-class: sessions => SessionStats
    sessions: Mutex<HashMap<u64, PoolStats>>,
    batches: AtomicU64,
    batched_chunks: AtomicU64,
}

impl SharedChunkCache {
    pub fn new(file: PfsFile, chunk_bytes: usize, capacity: usize) -> Result<Self> {
        Ok(SharedChunkCache {
            pool: Mutex::new(ChunkPool::new(file, chunk_bytes, capacity)?),
            queue: Mutex::new(FetchQueue::default()),
            fetched: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            batches: AtomicU64::new(0),
            batched_chunks: AtomicU64::new(0),
        })
    }

    pub fn chunk_bytes(&self) -> usize {
        self.pool.lock().chunk_bytes()
    }

    /// Coalesced fetch batches executed so far.
    pub fn coalesced_batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Chunks faulted in via coalesced batches.
    pub fn batched_chunks(&self) -> u64 {
        self.batched_chunks.load(Ordering::Relaxed)
    }

    pub fn global_stats(&self) -> PoolStats {
        self.pool.lock().stats()
    }

    pub fn session_stats(&self, session: u64) -> PoolStats {
        self.sessions.lock().get(&session).copied().unwrap_or_default()
    }

    pub fn drop_session(&self, session: u64) {
        self.sessions.lock().remove(&session);
    }

    fn credit(&self, session: u64, delta: PoolStats) {
        self.sessions.lock().entry(session).or_default().merge(&delta);
    }

    /// Ensure `addrs` are resident, merging the faults of concurrent
    /// sessions into coalesced batches (see module docs). Purely an
    /// optimization: chunks evicted again before use are simply refaulted
    /// one at a time by the subsequent reads.
    fn ensure_resident(&self, session: u64, addrs: &[u64]) -> Result<()> {
        let mut q = self.queue.lock();
        q.wanted.extend(addrs.iter().copied());
        loop {
            if q.in_flight {
                // A batch is being fetched; our addresses ride in the next
                // one. Park until the current batch completes.
                let gen = q.generation;
                sched_probe!("cache:park");
                while q.in_flight && q.generation == gen {
                    self.fetched.wait(&mut q);
                }
                continue;
            }
            if q.wanted.is_empty() {
                // Someone else's batch covered everything we asked for.
                return Ok(());
            }
            // Become the leader: drain the queue and fetch it all.
            sched_probe!("cache:lead");
            q.in_flight = true;
            let batch: Vec<u64> = std::mem::take(&mut q.wanted).into_iter().collect();
            drop(q);

            // Credit the leader's per-session stats after the pool guard
            // is released: SessionStats is ordered after ChunkPool only in
            // the canonical DAG's absence — not nesting them at all keeps
            // the leader's critical section minimal.
            let (outcome, delta) = {
                let mut pool = self.pool.lock();
                let before = pool.stats();
                let out = pool.prefetch(&batch);
                let delta = pool.stats().delta_since(&before);
                (out, delta)
            };
            self.credit(session, delta);

            let mut q2 = self.queue.lock();
            q2.in_flight = false;
            q2.generation = q2.generation.wrapping_add(1);
            drop(q2);
            self.fetched.notify_all();

            let outcome = outcome?;
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.batched_chunks.fetch_add(outcome.fetched as u64, Ordering::Relaxed);
            return Ok(());
        }
    }

    /// Visit the resident frames of `addrs` in order, under one pool guard,
    /// after faulting the misses in as one coalesced batch: `f(i, frame)`
    /// gets chunk `addrs[i]`'s bytes in place, so no chunk is copied on the
    /// way through. A chunk evicted again before its turn is refaulted on
    /// its own. `f` runs under the pool guard and must not block.
    pub fn read_frames(
        &self,
        session: u64,
        addrs: &[u64],
        mut f: impl FnMut(usize, &[u8]),
    ) -> Result<()> {
        if addrs.is_empty() {
            return Ok(());
        }
        self.ensure_resident(session, addrs)?;
        let mut pool = self.pool.lock();
        let before = pool.stats();
        let result = addrs.iter().enumerate().try_for_each(|(i, &a)| {
            f(i, pool.frame(a)?);
            Ok(())
        });
        let delta = pool.stats().delta_since(&before);
        drop(pool);
        self.credit(session, delta);
        result
    }

    /// Write through the frames of `addrs` in order, under one pool guard:
    /// `f(i, frame)` updates chunk `addrs[i]` in place and the frame turns
    /// dirty (write-back). A chunk with `full[i]` is one the caller
    /// overwrites entirely, so it is installed without I/O as
    /// [`ChunkPool::put`] does; the others are read-modify-written, their
    /// misses faulted in first as one coalesced batch.
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
        let partial: Vec<u64> =
            addrs.iter().zip(full).filter(|&(_, &full)| !full).map(|(&a, _)| a).collect();
        if !partial.is_empty() {
            self.ensure_resident(session, &partial)?;
        }
        let mut pool = self.pool.lock();
        let before = pool.stats();
        let result = addrs.iter().zip(full).enumerate().try_for_each(|(i, (&a, &full))| {
            if !full {
                pool.frame(a)?;
            }
            f(i, pool.frame_mut(a, full)?);
            Ok(())
        });
        let delta = pool.stats().delta_since(&before);
        drop(pool);
        self.credit(session, delta);
        result
    }

    /// Read whole chunks, faulting misses in as one coalesced batch.
    /// Returns the chunks' bytes in the order of `addrs`.
    pub fn read_chunks(&self, session: u64, addrs: &[u64]) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(addrs.len());
        self.read_frames(session, addrs, |_, frame| out.push(frame.to_vec()))?;
        Ok(out)
    }

    /// Replace one whole chunk (write-back; no read-modify-write).
    pub fn put_chunk(&self, session: u64, addr: u64, data: &[u8]) -> Result<()> {
        let mut pool = self.pool.lock();
        let before = pool.stats();
        pool.put(addr, data)?;
        let delta = pool.stats().delta_since(&before);
        drop(pool);
        self.credit(session, delta);
        Ok(())
    }

    /// Write all dirty frames back to the payload file.
    pub fn flush(&self) -> Result<()> {
        self.pool.lock().flush()?;
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
        // Capacity comfortably above the 32-chunk file: a prefetch batch
        // may transiently hold (resident + incoming) frames, and headroom
        // keeps that from evicting chunks another session is about to read.
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
