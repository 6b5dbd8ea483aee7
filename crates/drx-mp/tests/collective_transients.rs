//! Collective region I/O stages no region-sized buffer: a two-rank
//! `read_region_all` allocates nothing as large as a rank's region except
//! the `Vec` it returns, and `write_region_all` nothing at all.
//!
//! A group recycles its two-phase exchange buffers, so from its second
//! collective on a write allocates no block of 128 KiB or more, and a read
//! only its `Vec`.
//!
//! A counting global allocator notes every allocation of at least the
//! armed size. The count is process-wide, so the cases run one at a time.

use drx_core::{Layout, Region};
use drx_mp::error::to_msg;
use drx_mp::{DistSpec, DrxFile, DrxmpHandle};
use drx_msg::run_spmd;
use drx_pfs::Pfs;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct Counting;

/// Allocations of at least this many bytes are counted.
static ARMED_AT: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= ARMED_AT.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Held for a whole case, set-up included: building a file system
/// allocates large blocks, which another case's armed count would see.
fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

const SIDE: usize = 256;
const CHUNK: usize = 64;

fn tag(idx: &[usize]) -> f64 {
    (idx[0] * SIDE + idx[1]) as f64
}

/// A 256² f64 array of 64² chunks grown from 128² one chunk row or column
/// at a time, so the two halves' chunks interleave in the file: chunk
/// rows 0–1 sit at addresses 0–3, 6, 7, 12, 13, rows 2–3 at the rest.
fn grown_array(pfs: &Pfs) {
    let mut f: DrxFile<f64> = DrxFile::create(pfs, "a", &[CHUNK, CHUNK], &[128, 128]).unwrap();
    for dim in [0, 1, 0, 1] {
        f.extend(dim, CHUNK).unwrap();
    }
    f.fill_with(tag).unwrap();
}

/// Run one collective on two ranks, rank `r` passing `regions[r]`, and
/// return `(allocations of at least the smaller region's bytes, largest)`.
fn count_large(pfs: &Pfs, regions: [Region; 2], write: bool) -> (usize, usize) {
    let region_bytes = regions.iter().map(|r| r.volume() as usize * 8).min().unwrap();
    LARGE.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    run_spmd(2, |comm| {
        let mut h: DrxmpHandle<f64> =
            DrxmpHandle::open(comm, pfs, "a", DistSpec::block(vec![2, 1])).map_err(to_msg)?;
        let region = &regions[comm.rank()];
        let data: Vec<f64> = region.iter().map(|i| -tag(&i)).collect();
        comm.barrier()?;
        ARMED_AT.store(region_bytes, Ordering::Relaxed);
        if write {
            h.write_region_all(Some((region, &data)), Layout::C).map_err(to_msg)?;
            comm.barrier()?;
            ARMED_AT.store(usize::MAX, Ordering::Relaxed);
        } else {
            let out = h.read_region_all(Some(region), Layout::Fortran).map_err(to_msg)?;
            comm.barrier()?;
            ARMED_AT.store(usize::MAX, Ordering::Relaxed);
            let strides = Layout::Fortran.strides(&region.extents());
            for idx in region.iter() {
                let rel: Vec<usize> = idx.iter().zip(region.lo()).map(|(&a, &l)| a - l).collect();
                let at = drx_core::index::offset_with_strides(&rel, &strides) as usize;
                assert_eq!(out[at], tag(&idx), "read at {idx:?}");
            }
        }
        h.close().map_err(to_msg)
    })
    .unwrap();
    if write {
        let f: DrxFile<f64> = DrxFile::open(pfs, "a").unwrap();
        for idx in f.meta().element_region().iter() {
            let ours = regions.iter().any(|r| r.contains(&idx));
            let want = if ours { -tag(&idx) } else { tag(&idx) };
            assert_eq!(f.get(&idx).unwrap(), want, "written at {idx:?}");
        }
    }
    (LARGE.load(Ordering::Relaxed), LARGEST.load(Ordering::Relaxed))
}

fn region(lo: [usize; 2], hi: [usize; 2]) -> Region {
    Region::new(lo.to_vec(), hi.to_vec()).unwrap()
}

/// A file system holding the grown array.
fn grown_pfs() -> Pfs {
    let pfs = Pfs::memory(4, 64 * 1024).unwrap();
    grown_array(&pfs);
    pfs
}

fn check(pfs: &Pfs, regions: [Region; 2]) {
    let region_bytes = regions[0].volume() as usize * 8;
    assert_eq!(region_bytes, regions[1].volume() as usize * 8);
    // Only each rank's returned `Vec` is region-sized.
    let (large, largest) = count_large(pfs, regions.clone(), false);
    assert_eq!((large, largest), (2, region_bytes), "read_region_all");
    let (large, largest) = count_large(pfs, regions, true);
    assert_eq!((large, largest), (0, 0), "write_region_all");
}

#[test]
fn zone_halves_stage_no_region_sized_buffer() {
    // The two zones of `DistSpec::block([2, 1])`, 256 KiB each.
    let _one = one_at_a_time();
    check(&grown_pfs(), [region([0, 0], [128, SIDE]), region([128, 0], [SIDE, SIDE])]);
}

#[test]
fn a_domain_boundary_mid_chunk_stages_no_region_sized_buffer() {
    // Chunk rows 1 and 2, minus a 10-column margin: 120 KiB each. The
    // read's hull is an odd number of chunks, so halving it by bytes
    // would cut a chunk in two; the write's row view puts its halving
    // boundary mid-chunk and mid-row.
    let _one = one_at_a_time();
    let pfs = grown_pfs();
    let meta = DrxFile::<f64>::open(&pfs, "a").unwrap().meta().clone();
    let addrs: Vec<u64> = [1, 2]
        .iter()
        .flat_map(|&r| (0..4).map(move |c| [r, c]))
        .map(|idx| meta.grid().address(&idx).unwrap())
        .collect();
    let hull = addrs.iter().max().unwrap() + 1 - addrs.iter().min().unwrap();
    assert_eq!(hull % 2, 1, "chunks {addrs:?}");
    check(&pfs, [region([64, 10], [128, 250]), region([128, 10], [192, 250])]);
}

#[test]
fn steady_state_collectives_allocate_no_exchange_buffer() {
    // The zone halves, each written twice and then read twice by one
    // group: from the second call on, every exchange buffer of at least
    // 128 KiB is one the group handed back before.
    let _one = one_at_a_time();
    let pfs = grown_pfs();
    let regions = [region([0, 0], [128, SIDE]), region([128, 0], [SIDE, SIDE])];
    let region_bytes = regions[0].volume() as usize * 8;
    let counts = Mutex::new(Vec::new());
    run_spmd(2, |comm| {
        let mut h: DrxmpHandle<f64> =
            DrxmpHandle::open(comm, &pfs, "a", DistSpec::block(vec![2, 1])).map_err(to_msg)?;
        let region = &regions[comm.rank()];
        // Count the large allocations of `call` on both ranks together.
        let counted = |call: &mut dyn FnMut() -> Result<(), drx_msg::MsgError>| {
            comm.barrier()?;
            if comm.is_root() {
                LARGE.store(0, Ordering::Relaxed);
                LARGEST.store(0, Ordering::Relaxed);
                ARMED_AT.store(128 << 10, Ordering::Relaxed);
            }
            comm.barrier()?;
            call()?;
            comm.barrier()?;
            if comm.is_root() {
                ARMED_AT.store(usize::MAX, Ordering::Relaxed);
                let mut counts = counts.lock().unwrap();
                counts.push((LARGE.load(Ordering::Relaxed), LARGEST.load(Ordering::Relaxed)));
            }
            comm.barrier()
        };
        for round in 0..2 {
            let data: Vec<f64> = region.iter().map(|i| -tag(&i) - round as f64).collect();
            counted(&mut || h.write_region_all(Some((region, &data)), Layout::C).map_err(to_msg))?;
        }
        for _ in 0..2 {
            let mut out = Vec::new();
            counted(&mut || {
                out = h.read_region_all(Some(region), Layout::C).map_err(to_msg)?;
                Ok(())
            })?;
            let want: Vec<f64> = region.iter().map(|i| -tag(&i) - 1.0).collect();
            assert!(out == want, "rank {} read back", comm.rank());
        }
        h.close().map_err(to_msg)
    })
    .unwrap();
    let counts = counts.into_inner().unwrap();
    // The first write of a fresh group allocates its exchange buffers.
    assert_ne!(counts[0], (0, 0), "first write_region_all");
    assert_eq!(counts[1], (0, 0), "second write_region_all");
    // Each read's only large allocations are the two returned `Vec`s.
    assert_eq!(counts[3], (2, region_bytes), "second read_region_all");
}
