//! A full `ChunkPool` serves a miss from the buffer of the frame it
//! evicts: 1,000 misses through `frame`, `frame_mut` and `prefetch`
//! allocate nothing as large as a chunk.
//!
//! A counting global allocator notes every allocation of at least the
//! armed size. The count is process-wide, so this binary holds one case.

use drx_mp::ChunkPool;
use drx_pfs::Pfs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Allocations of at least this many bytes are counted.
static ARMED_AT: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= ARMED_AT.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CB: usize = 4096;
const CHUNKS: u64 = 64;
const CAPACITY: usize = 16;

#[test]
fn misses_in_a_full_pool_allocate_no_chunk() {
    let pfs = Pfs::memory(2, 16 * 1024).unwrap();
    let f = pfs.create("payload").unwrap();
    // Write every chunk once, so write-backs land in existing storage.
    for a in 0..CHUNKS {
        f.write_at(a * CB as u64, &[a as u8; CB]).unwrap();
    }
    // Addresses step by 17 modulo 64: a chunk comes back after 64
    // accesses, three turns of a 16-frame table, so every access misses.
    let mut addr = 0;
    let mut next = || {
        let a = addr;
        addr = (addr + 17) % CHUNKS;
        a
    };
    let mut pool = ChunkPool::new(f, CB, CAPACITY).unwrap();
    for _ in 0..CAPACITY {
        pool.frame(next()).unwrap();
    }
    let before = pool.stats();

    ARMED_AT.store(CB, Ordering::Relaxed);
    let mut tags = 0u64;
    for round in 0..250 {
        // A read, a read-modify-write (dirty, written back on eviction),
        // an overwrite, and a one-chunk prefetch.
        tags += u64::from(pool.frame(next()).unwrap()[1]);
        pool.frame_mut(next(), false).unwrap()[0] = round as u8;
        pool.frame_mut(next(), true).unwrap().fill(0xEE);
        pool.prefetch(&[next()]).unwrap();
    }
    ARMED_AT.store(usize::MAX, Ordering::Relaxed);

    let st = pool.stats();
    assert_eq!(st.misses - before.misses, 1000, "every access must miss: {st:?}");
    assert_eq!(st.hits, before.hits);
    assert!(st.writebacks > 0, "dirty victims must be written back: {st:?}");
    assert!(tags > 0);
    assert_eq!(LARGE.load(Ordering::Relaxed), 0, "a miss allocated a chunk-sized buffer");
}
