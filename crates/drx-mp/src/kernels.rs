//! Scatter/gather copy kernels between chunk byte images and dense element
//! buffers — the in-core half of the fast-path access pipeline.
//!
//! Moving a planned chunk's elements into (or out of) the user's buffer is
//! a strided copy. Three kernels cover the cases:
//!
//! * **memcpy rows** — when the innermost dimension is contiguous on *both*
//!   sides (row-major chunk image, C-order buffer) and the element type
//!   exposes a little-endian byte view, whole rows move with one
//!   `copy_from_slice` each instead of one decode per element
//!   ([`copy_rows`], which also serves untyped byte images).
//! * **blocked transpose** — when the two sides disagree on their
//!   fastest-varying dimension (C-order chunks into a FORTRAN-order buffer:
//!   the paper's on-the-fly transposition), the copy is tiled over the two
//!   fast dimensions, and every tile line runs along the *large buffer's*
//!   contiguous dimension (the destination of a scatter, the source of a
//!   gather) while the chunk image, a few dozen KiB, stays in L1. Walking
//!   the chunk instead would stride the large buffer by its leading
//!   dimension; at power-of-two leading dimensions every such write maps
//!   to the same L1 set and the tile thrashes.
//! * **generic** — per-element strided walk; the fallback for rank-1
//!   transposes-to-self and non-viewable targets (big-endian hosts).
//!
//! Global counters record which kernel served each call so benches and the
//! CI smoke stage can assert the fast path is actually taken. Unit tests
//! read a per-thread mirror instead, so kernels run by concurrent tests do
//! not perturb their exact deltas.

use drx_core::index::{for_each_offset_pair, for_each_row_pair};
use drx_core::{Element, Region};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tile edge (elements) of the blocked transpose. 32×32 tiles of ≤16-byte
/// elements stay well within L1 for both streams.
const TILE: usize = 32;

static MEMCPY_CALLS: AtomicU64 = AtomicU64::new(0);
static MEMCPY_ROWS: AtomicU64 = AtomicU64::new(0);
static MEMCPY_BYTES: AtomicU64 = AtomicU64::new(0);
static TILED_ELEMS: AtomicU64 = AtomicU64::new(0);
static GENERIC_ELEMS: AtomicU64 = AtomicU64::new(0);

/// Cumulative kernel-dispatch counters (process-wide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Calls served by the memcpy row kernel.
    pub memcpy_calls: u64,
    /// Contiguous rows moved by the memcpy kernel.
    pub memcpy_rows: u64,
    /// Bytes moved by the memcpy kernel.
    pub memcpy_bytes: u64,
    /// Elements moved by the blocked transpose kernel.
    pub tiled_elems: u64,
    /// Elements moved by the generic per-element kernel.
    pub generic_elems: u64,
}

impl KernelStats {
    /// Component-wise difference `self - earlier`; attributes the kernel
    /// work of one operation out of the cumulative totals.
    pub fn delta_since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            memcpy_calls: self.memcpy_calls - earlier.memcpy_calls,
            memcpy_rows: self.memcpy_rows - earlier.memcpy_rows,
            memcpy_bytes: self.memcpy_bytes - earlier.memcpy_bytes,
            tiled_elems: self.tiled_elems - earlier.tiled_elems,
            generic_elems: self.generic_elems - earlier.generic_elems,
        }
    }
}

/// Add one call's kernel work to the process-wide counters.
fn record(d: KernelStats) {
    for (counter, n) in [
        (&MEMCPY_CALLS, d.memcpy_calls),
        (&MEMCPY_ROWS, d.memcpy_rows),
        (&MEMCPY_BYTES, d.memcpy_bytes),
        (&TILED_ELEMS, d.tiled_elems),
        (&GENERIC_ELEMS, d.generic_elems),
    ] {
        if n != 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
    #[cfg(test)]
    THREAD_STATS.with(|t| {
        let s = t.get();
        t.set(KernelStats {
            memcpy_calls: s.memcpy_calls + d.memcpy_calls,
            memcpy_rows: s.memcpy_rows + d.memcpy_rows,
            memcpy_bytes: s.memcpy_bytes + d.memcpy_bytes,
            tiled_elems: s.tiled_elems + d.tiled_elems,
            generic_elems: s.generic_elems + d.generic_elems,
        })
    });
}

#[cfg(test)]
thread_local! {
    static THREAD_STATS: std::cell::Cell<KernelStats> =
        const { std::cell::Cell::new(KernelStats {
            memcpy_calls: 0,
            memcpy_rows: 0,
            memcpy_bytes: 0,
            tiled_elems: 0,
            generic_elems: 0,
        }) };
}

/// Snapshot of the kernel work done on the calling thread (test builds).
#[cfg(test)]
fn thread_kernel_stats() -> KernelStats {
    THREAD_STATS.with(|t| t.get())
}

/// Snapshot of the process-wide kernel counters.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        memcpy_calls: MEMCPY_CALLS.load(Ordering::Relaxed),
        memcpy_rows: MEMCPY_ROWS.load(Ordering::Relaxed),
        memcpy_bytes: MEMCPY_BYTES.load(Ordering::Relaxed),
        tiled_elems: TILED_ELEMS.load(Ordering::Relaxed),
        generic_elems: GENERIC_ELEMS.load(Ordering::Relaxed),
    }
}

/// Index of the fastest-varying dimension (minimum stride).
fn fastest_dim(strides: &[u64]) -> usize {
    let mut best = strides.len() - 1;
    for (j, &s) in strides.iter().enumerate() {
        if s < strides[best] {
            best = j;
        }
    }
    best
}

/// Advance `idx` as an odometer over `region`, skipping dims `d0`/`d1`.
/// Returns `false` once every combination has been visited.
fn advance_outer(idx: &mut [usize], region: &Region, d0: usize, d1: usize) -> bool {
    let mut j = idx.len();
    while j > 0 {
        j -= 1;
        if j == d0 || j == d1 {
            continue;
        }
        idx[j] += 1;
        if idx[j] < region.hi()[j] {
            return true;
        }
        idx[j] = region.lo()[j];
    }
    false
}

/// Visit every index of `region` in [`TILE`]×[`TILE`] tiles over
/// dimensions `d0` (outer tile loop) and `d1` (inner), one tile line at a
/// time: `f(offset_a, offset_b, n)` covers `n` consecutive indices along
/// `d1`, starting at element offsets `offset_a`/`offset_b` relative to
/// `origin_*` under `strides_*` (as in
/// [`for_each_offset_pair`](drx_core::index::for_each_offset_pair)). This
/// is the cache-blocked schedule of an in-core transpose; callers pick `d1`
/// as the large buffer's contiguous dimension, so every line is one
/// sequential run there while the chunk side stays cache-resident.
#[allow(clippy::too_many_arguments)] // mirrors for_each_offset_pair's shape + the two tile dims
fn for_each_tile_line(
    region: &Region,
    origin_a: &[usize],
    strides_a: &[u64],
    origin_b: &[usize],
    strides_b: &[u64],
    d0: usize,
    d1: usize,
    mut f: impl FnMut(u64, u64, usize),
) {
    debug_assert!(d0 != d1);
    let k = region.rank();
    let lo = region.lo();
    let hi = region.hi();
    let mut idx = lo.to_vec();
    loop {
        // Base offsets of the current outer plane with d0/d1 at their lows.
        let mut base_a = 0u64;
        let mut base_b = 0u64;
        for j in 0..k {
            let i = if j == d0 || j == d1 { lo[j] } else { idx[j] } as u64;
            base_a += (i - origin_a[j] as u64) * strides_a[j];
            base_b += (i - origin_b[j] as u64) * strides_b[j];
        }
        let mut t0 = lo[d0];
        while t0 < hi[d0] {
            let e0 = (t0 + TILE).min(hi[d0]);
            let mut t1 = lo[d1];
            while t1 < hi[d1] {
                let e1 = (t1 + TILE).min(hi[d1]);
                let line_a = base_a + (t1 - lo[d1]) as u64 * strides_a[d1];
                let line_b = base_b + (t1 - lo[d1]) as u64 * strides_b[d1];
                for i0 in t0..e0 {
                    let step = (i0 - lo[d0]) as u64;
                    f(line_a + step * strides_a[d0], line_b + step * strides_b[d0], e1 - t1);
                }
                t1 = e1;
            }
            t0 = e0;
        }
        if !advance_outer(&mut idx, region, d0, d1) {
            return;
        }
    }
}

/// Copy the elements of `valid` between two little-endian byte images of
/// `esize`-byte elements, one `copy_from_slice` per row: the memcpy kernel.
/// Both sides must be contiguous along the last dimension
/// (`src_strides`/`dst_strides` end in 1); `src_lo`/`dst_lo` are the
/// images' low corners, as in
/// [`for_each_row_pair`](drx_core::index::for_each_row_pair).
///
/// This is the only row loop: the memcpy branches of [`scatter_chunk`] and
/// [`gather_chunk`] call it, and `drx-server` copies between cache frames
/// and wire payloads with it directly.
#[allow(clippy::too_many_arguments)] // two (image, origin, strides) triples + region + size
pub fn copy_rows(
    src: &[u8],
    src_lo: &[usize],
    src_strides: &[u64],
    dst: &mut [u8],
    dst_lo: &[usize],
    dst_strides: &[u64],
    valid: &Region,
    esize: usize,
) {
    let k = valid.rank();
    debug_assert!(src_strides[k - 1] == 1 && dst_strides[k - 1] == 1);
    let mut rows = 0u64;
    let mut bytes = 0u64;
    for_each_row_pair(valid, src_lo, src_strides, dst_lo, dst_strides, |s, d, n| {
        let (sb, db, nb) = (s as usize * esize, d as usize * esize, n * esize);
        dst[db..db + nb].copy_from_slice(&src[sb..sb + nb]);
        rows += 1;
        bytes += nb as u64;
    });
    record(KernelStats {
        memcpy_calls: 1,
        memcpy_rows: rows,
        memcpy_bytes: bytes,
        ..Default::default()
    });
}

/// Scatter the elements of `valid` from a chunk byte image into a dense
/// element buffer.
///
/// * `chunk` — one chunk's raw bytes (little-endian elements, row-major
///   within the chunk);
/// * `chunk_lo`/`chunk_strides` — the chunk's element region low corner and
///   within-chunk element strides;
/// * `out`/`out_lo`/`out_strides` — the destination buffer holding a region
///   whose low corner is `out_lo`, in the order `out_strides` describes.
pub fn scatter_chunk<T: Element>(
    chunk: &[u8],
    chunk_lo: &[usize],
    chunk_strides: &[u64],
    out: &mut [T],
    out_lo: &[usize],
    out_strides: &[u64],
    valid: &Region,
) {
    if valid.is_empty() {
        return;
    }
    let k = valid.rank();
    if chunk_strides[k - 1] == 1 && out_strides[k - 1] == 1 {
        if let Some(view) = T::as_le_bytes_mut(out) {
            copy_rows(chunk, chunk_lo, chunk_strides, view, out_lo, out_strides, valid, T::SIZE);
            return;
        }
    }
    // Destination-sequential transpose: each tile line is a contiguous
    // run of `out` read from a strided column of the cache-resident chunk.
    let d0 = fastest_dim(chunk_strides);
    let d1 = fastest_dim(out_strides);
    if k >= 2 && d0 != d1 {
        let src_step = chunk_strides[d1] as usize * T::SIZE;
        let dst_step = out_strides[d1] as usize;
        let mut moved = 0u64;
        for_each_tile_line(
            valid,
            chunk_lo,
            chunk_strides,
            out_lo,
            out_strides,
            d0,
            d1,
            |src, dst, n| {
                moved += n as u64;
                let (sb, db) = (src as usize * T::SIZE, dst as usize);
                let src = chunk[sb..sb + (n - 1) * src_step + T::SIZE].chunks(src_step);
                if dst_step == 1 {
                    if let Some(line) = T::as_le_bytes_mut(&mut out[db..db + n]) {
                        for (d, s) in line.chunks_exact_mut(T::SIZE).zip(src) {
                            d.copy_from_slice(&s[..T::SIZE]);
                        }
                        return;
                    }
                }
                for (d, s) in out[db..].iter_mut().step_by(dst_step).zip(src) {
                    *d = T::read_le(s);
                }
            },
        );
        record(KernelStats { tiled_elems: moved, ..Default::default() });
        return;
    }
    let mut n = 0u64;
    for_each_offset_pair(valid, chunk_lo, chunk_strides, out_lo, out_strides, |src, dst| {
        let sb = src as usize * T::SIZE;
        out[dst as usize] = T::read_le(&chunk[sb..sb + T::SIZE]);
        n += 1;
    });
    record(KernelStats { generic_elems: n, ..Default::default() });
}

/// Gather the elements of `valid` from a dense element buffer into a chunk
/// byte image — the write-side mirror of [`scatter_chunk`].
pub fn gather_chunk<T: Element>(
    data: &[T],
    data_lo: &[usize],
    data_strides: &[u64],
    chunk: &mut [u8],
    chunk_lo: &[usize],
    chunk_strides: &[u64],
    valid: &Region,
) {
    if valid.is_empty() {
        return;
    }
    let k = valid.rank();
    if chunk_strides[k - 1] == 1 && data_strides[k - 1] == 1 {
        if let Some(view) = T::as_le_bytes(data) {
            copy_rows(view, data_lo, data_strides, chunk, chunk_lo, chunk_strides, valid, T::SIZE);
            return;
        }
    }
    // Source-sequential here: `data` is the large buffer, so each tile line
    // walks its contiguous dimension and writes a strided chunk column.
    let d0 = fastest_dim(chunk_strides);
    let d1 = fastest_dim(data_strides);
    let mut tmp = Vec::with_capacity(T::SIZE);
    if k >= 2 && d0 != d1 {
        let (src_step, dst_step) = (data_strides[d1], chunk_strides[d1]);
        let mut moved = 0u64;
        for_each_tile_line(
            valid,
            data_lo,
            data_strides,
            chunk_lo,
            chunk_strides,
            d0,
            d1,
            |src, dst, n| {
                for i in 0..n as u64 {
                    let db = (dst + i * dst_step) as usize * T::SIZE;
                    tmp.clear();
                    data[(src + i * src_step) as usize].write_le(&mut tmp);
                    chunk[db..db + T::SIZE].copy_from_slice(&tmp);
                }
                moved += n as u64;
            },
        );
        record(KernelStats { tiled_elems: moved, ..Default::default() });
        return;
    }
    let mut n = 0u64;
    for_each_offset_pair(valid, data_lo, data_strides, chunk_lo, chunk_strides, |src, dst| {
        let db = dst as usize * T::SIZE;
        tmp.clear();
        data[src as usize].write_le(&mut tmp);
        chunk[db..db + T::SIZE].copy_from_slice(&tmp);
        n += 1;
    });
    record(KernelStats { generic_elems: n, ..Default::default() });
}

#[cfg(test)]
mod tests {
    use super::*;
    use drx_core::{Complex64, Layout};

    /// Per-element reference scatter: the pre-kernel code path.
    fn scatter_reference<T: Element>(
        chunk: &[u8],
        chunk_lo: &[usize],
        chunk_strides: &[u64],
        out: &mut [T],
        out_lo: &[usize],
        out_strides: &[u64],
        valid: &Region,
    ) {
        for_each_offset_pair(valid, chunk_lo, chunk_strides, out_lo, out_strides, |src, dst| {
            let sb = src as usize * T::SIZE;
            out[dst as usize] = T::read_le(&chunk[sb..sb + T::SIZE]);
        });
    }

    fn gather_reference<T: Element>(
        data: &[T],
        data_lo: &[usize],
        data_strides: &[u64],
        chunk: &mut [u8],
        chunk_lo: &[usize],
        chunk_strides: &[u64],
        valid: &Region,
    ) {
        let mut tmp = Vec::with_capacity(T::SIZE);
        for_each_offset_pair(valid, data_lo, data_strides, chunk_lo, chunk_strides, |src, dst| {
            let db = dst as usize * T::SIZE;
            tmp.clear();
            data[src as usize].write_le(&mut tmp);
            chunk[db..db + T::SIZE].copy_from_slice(&tmp);
        });
    }

    fn row_major(shape: &[usize]) -> Vec<u64> {
        Layout::C.strides(shape)
    }

    /// Exercise every (chunk shape, region, layout) combination against the
    /// reference, including asymmetric 1×N / N×1 chunks and partial
    /// boundary intersections.
    fn check_case<T: Element + std::fmt::Debug>(
        chunk_shape: &[usize],
        chunk_origin: &[usize],
        region: &Region,
        layout: Layout,
        mk: impl Fn(u64) -> T,
    ) {
        let chunk_elems: usize = chunk_shape.iter().product();
        let chunk_hi: Vec<usize> =
            chunk_origin.iter().zip(chunk_shape).map(|(&o, &s)| o + s).collect();
        let chunk_region = Region::new(chunk_origin.to_vec(), chunk_hi).unwrap();
        let Some(valid) = chunk_region.intersect(region) else { return };
        let chunk_strides = row_major(chunk_shape);
        let out_strides = layout.strides(&region.extents());
        // A chunk image with distinct element payloads.
        let vals: Vec<T> = (0..chunk_elems as u64).map(&mk).collect();
        let chunk_bytes = drx_core::dtype::encode_slice(&vals);
        let n = region.volume() as usize;

        let mut out_fast = vec![T::default(); n];
        scatter_chunk(
            &chunk_bytes,
            chunk_region.lo(),
            &chunk_strides,
            &mut out_fast,
            region.lo(),
            &out_strides,
            &valid,
        );
        let mut out_ref = vec![T::default(); n];
        scatter_reference(
            &chunk_bytes,
            chunk_region.lo(),
            &chunk_strides,
            &mut out_ref,
            region.lo(),
            &out_strides,
            &valid,
        );
        assert_eq!(out_fast, out_ref, "scatter {chunk_shape:?} {layout:?} valid {valid:?}");

        // Gather back: both kernels must produce byte-identical images.
        let mut img_fast = vec![0u8; chunk_bytes.len()];
        gather_chunk(
            &out_ref,
            region.lo(),
            &out_strides,
            &mut img_fast,
            chunk_region.lo(),
            &chunk_strides,
            &valid,
        );
        let mut img_ref = vec![0u8; chunk_bytes.len()];
        gather_reference(
            &out_ref,
            region.lo(),
            &out_strides,
            &mut img_ref,
            chunk_region.lo(),
            &chunk_strides,
            &valid,
        );
        assert_eq!(img_fast, img_ref, "gather {chunk_shape:?} {layout:?} valid {valid:?}");
        // Round trip: re-scattering the gathered image reproduces the data.
        let mut out_back = vec![T::default(); n];
        scatter_chunk(
            &img_fast,
            chunk_region.lo(),
            &chunk_strides,
            &mut out_back,
            region.lo(),
            &out_strides,
            &valid,
        );
        assert_eq!(out_back, out_ref, "round trip {chunk_shape:?} {layout:?}");
    }

    #[test]
    fn kernels_match_reference_on_asymmetric_chunks() {
        let region = Region::new(vec![1, 2], vec![7, 9]).unwrap();
        for layout in [Layout::C, Layout::Fortran] {
            for shape in [[1usize, 8], [8, 1], [2, 3], [4, 4], [3, 7]] {
                for origin in [[0usize, 0], [0, 7], [6, 0], [3, 4]] {
                    check_case::<i64>(&shape, &origin, &region, layout, |v| v as i64 * 3 - 5);
                    check_case::<f32>(&shape, &origin, &region, layout, |v| v as f32 * 0.5);
                }
            }
        }
    }

    #[test]
    fn kernels_match_reference_in_3d_and_rank_1() {
        let region = Region::new(vec![0, 1, 0], vec![5, 6, 7]).unwrap();
        for layout in [Layout::C, Layout::Fortran] {
            check_case::<f64>(&[2, 2, 3], &[2, 2, 3], &region, layout, |v| v as f64 + 0.25);
            check_case::<Complex64>(&[1, 4, 2], &[4, 0, 2], &region, layout, |v| {
                Complex64::new(v as f64, -(v as f64))
            });
        }
        let r1 = Region::new(vec![3], vec![11]).unwrap();
        check_case::<i32>(&[4], &[0], &r1, Layout::C, |v| v as i32);
        check_case::<i32>(&[4], &[8], &r1, Layout::C, |v| v as i32);
    }

    #[test]
    fn large_transposes_match_reference() {
        // Big enough to cross several 32-element tiles in both dims.
        let region = Region::new(vec![0, 0], vec![70, 90]).unwrap();
        check_case::<i64>(&[70, 90], &[0, 0], &region, Layout::Fortran, |v| v as i64);
        check_case::<f32>(&[64, 128], &[0, 0], &region, Layout::Fortran, |v| v as f32);
    }

    #[test]
    fn transposes_into_large_power_of_two_fortran_buffers_match_reference() {
        // A 4096-row FORTRAN buffer: consecutive columns sit 32 KiB apart,
        // so a chunk-ordered walk would hit one L1 set per tile line. Chunks
        // cover aligned, boundary-clipped and unaligned positions.
        let before = thread_kernel_stats();
        let region = Region::new(vec![0, 0], vec![4096, 130]).unwrap();
        let cases: [([usize; 2], [usize; 2]); 8] = [
            ([64, 64], [0, 0]),
            ([64, 64], [4032, 64]),
            ([64, 64], [100, 100]),
            ([1, 64], [17, 3]),
            ([1, 130], [4095, 0]),
            ([64, 1], [2000, 129]),
            ([4096, 1], [0, 7]),
            ([33, 97], [4070, 40]),
        ];
        for (shape, origin) in cases {
            check_case::<f64>(&shape, &origin, &region, Layout::Fortran, |v| v as f64 + 0.5);
        }
        // 3-D: a 1024-element leading dimension and a 4096-element plane.
        let region = Region::new(vec![0, 0, 0], vec![1024, 4, 64]).unwrap();
        for origin in [[0usize, 0, 0], [512, 0, 32], [1000, 2, 60]] {
            for layout in [Layout::C, Layout::Fortran] {
                check_case::<f64>(&[32, 4, 16], &origin, &region, layout, |v| v as f64);
                check_case::<Complex64>(&[64, 1, 8], &origin, &region, layout, |v| {
                    Complex64::new(v as f64, 1.0)
                });
            }
        }
        let d = thread_kernel_stats().delta_since(&before);
        assert!(d.tiled_elems > 0, "FORTRAN scatters must take the transpose path: {d:?}");
    }

    #[test]
    fn transpose_into_non_unit_stride_destination_matches_reference() {
        // Every other slot of a 256-row FORTRAN buffer: no line of the
        // destination is contiguous, so the strided per-element line runs.
        let chunk_shape = [64usize, 64];
        let vals: Vec<f64> = (0..64 * 64).map(|v| v as f64).collect();
        let bytes = drx_core::dtype::encode_slice(&vals);
        let chunk_strides = row_major(&chunk_shape);
        let out_strides = [2u64, 512];
        let valid = Region::new(vec![10, 3], vec![64, 50]).unwrap();
        let mut fast = vec![0.0f64; 512 * 64];
        scatter_chunk(&bytes, &[0, 0], &chunk_strides, &mut fast, &[0, 0], &out_strides, &valid);
        let mut reference = vec![0.0f64; 512 * 64];
        let r = &mut reference;
        scatter_reference(&bytes, &[0, 0], &chunk_strides, r, &[0, 0], &out_strides, &valid);
        assert_eq!(fast, reference);
    }

    #[test]
    fn memcpy_fast_path_is_taken_for_same_order_copies() {
        let before = thread_kernel_stats();
        let region = Region::new(vec![0, 0], vec![8, 8]).unwrap();
        check_case::<i64>(&[4, 8], &[0, 0], &region, Layout::C, |v| v as i64);
        let d = thread_kernel_stats().delta_since(&before);
        assert!(d.memcpy_calls > 0, "C-order copy must use the memcpy kernel: {d:?}");
        assert!(d.memcpy_bytes > 0);
    }

    #[test]
    fn tiled_path_is_taken_for_transposes() {
        let before = thread_kernel_stats();
        let region = Region::new(vec![0, 0], vec![40, 40]).unwrap();
        let chunk_strides = row_major(&[40, 40]);
        let out_strides = Layout::Fortran.strides(&[40, 40]);
        let vals: Vec<i64> = (0..1600).collect();
        let bytes = drx_core::dtype::encode_slice(&vals);
        let mut out = vec![0i64; 1600];
        scatter_chunk(&bytes, &[0, 0], &chunk_strides, &mut out, &[0, 0], &out_strides, &region);
        let d = thread_kernel_stats().delta_since(&before);
        assert_eq!(d.tiled_elems, 1600, "transpose must use the tiled kernel: {d:?}");
        assert_eq!(d.memcpy_calls, 0);
    }
}
