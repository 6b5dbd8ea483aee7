//! Parallel sub-array reads (paper §IV-B, `DRXMP_Read` / `DRXMP_Read_all`).
//!
//! A read of an element region is planned as the set of chunks covering the
//! region. Planning is run-coalesced: [`ExtendibleShape::region_runs`]
//! decomposes the chunk region into arithmetic-progression address runs (one
//! `F*` owner lookup per run instead of per chunk), and [`ChunkPlan`] keeps
//! the runs plus a flat address-sorted entry list. Independent reads issue
//! the merged byte extents directly as one vectored request; collective
//! reads build an indexed file view over the chunk addresses — exactly the
//! paper's code listing (`MPI_Type_indexed` over a contiguous chunk type,
//! then `MPI_File_read_all`) — and go through two-phase I/O. Elements are
//! then scattered from chunk buffers to their in-memory positions with the
//! [`crate::kernels`] copy kernels in the requested layout order (C or
//! FORTRAN): the on-the-fly transposition that removes the need for
//! out-of-core transposes.
//!
//! Independent reads (here and in [`crate::DrxFile`]) never stage the
//! whole region: [`ChunkPlan::read_windowed`] fetches the address-sorted
//! entries one bounded staging window at a time — one stripe round of the
//! file system — and scatters each window while it is still in cache. Only
//! the collective read holds a region-sized buffer, because two-phase I/O
//! redistributes the aggregate request in one exchange.
//!
//! [`ExtendibleShape::region_runs`]: drx_core::ExtendibleShape::region_runs

use crate::error::Result;
use crate::handle::DrxmpHandle;
use crate::kernels;
use drx_core::plan::ChunkRun;
use drx_core::{ArrayMeta, Chunking, Element, Layout, Region};
use drx_msg::Datatype;
use drx_pfs::Pfs;
use std::cell::Cell;
use std::ops::Range;

/// Upper bound on a staging window, so it stays resident in a core's L2
/// next to the destination stream however wide the stripe round is.
const STAGING_MAX_BYTES: u64 = 1 << 20;

thread_local! {
    /// The calling thread's staging window, reused across reads so its
    /// pages are touched once rather than on every call.
    static STAGING: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// A planned chunk access: the run decomposition of the chunk set plus one
/// entry per chunk in file-address order, ready to become a file view, a
/// vectored extent list, or a walk over cached chunk frames.
///
/// This is the one region planner: `DrxFile`, `DrxmpHandle` and the
/// `drx-server` region pipeline all plan through it.
pub struct ChunkPlan {
    /// Run decomposition, in row-major chunk-index order (runs from
    /// different rows may interleave in address space).
    pub(crate) runs: Vec<ChunkRun>,
    /// `(address, run, step)` per planned chunk, sorted by address. Entry
    /// `i` owns byte slot `i` of the plan's transfer buffer.
    pub(crate) entries: Vec<(u64, u32, u32)>,
    pub(crate) chunk_bytes: u64,
}

impl ChunkPlan {
    /// Plan the chunks covering `region` of the array `meta` describes:
    /// run-coalesced `F*` planning, entries sorted by address. The caller
    /// has checked `region` against the array's bounds.
    pub fn for_region(meta: &ArrayMeta, region: &Region) -> Result<ChunkPlan> {
        let chunk_region = meta.chunking().chunks_covering(region)?;
        let runs = meta.grid().region_runs(&chunk_region)?;
        Ok(ChunkPlan::from_runs(runs, meta.chunk_bytes()))
    }

    /// Plan from a run decomposition (region reads/writes). Entries are
    /// sorted by address; `F*` is a bijection, so addresses are strictly
    /// increasing afterwards.
    pub(crate) fn from_runs(runs: Vec<ChunkRun>, chunk_bytes: u64) -> ChunkPlan {
        let entries = drx_core::sorted_run_entries(&runs);
        ChunkPlan { runs, entries, chunk_bytes }
    }

    /// Plan from an explicit `(chunk index, address)` list that is already
    /// sorted by address (zone chunk lists are). Each chunk becomes a
    /// length-1 run, so no re-sort is needed.
    pub(crate) fn from_pairs(pairs: Vec<(Vec<usize>, u64)>, chunk_bytes: u64) -> ChunkPlan {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].1 < w[1].1),
            "chunk lists must be pre-sorted by strictly increasing address"
        );
        let mut runs = Vec::with_capacity(pairs.len());
        let mut entries = Vec::with_capacity(pairs.len());
        for (i, (start, addr)) in pairs.into_iter().enumerate() {
            entries.push((addr, i as u32, 0u32));
            runs.push(ChunkRun { start, addr, len: 1, stride: 1 });
        }
        ChunkPlan { runs, entries, chunk_bytes }
    }

    /// Number of planned chunks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The planned chunk addresses, strictly increasing.
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(addr, _, _)| addr)
    }

    /// The element box of every planned chunk, in entry order — the whole
    /// allocated chunk, including any slack beyond the element bounds.
    pub fn chunk_regions(&self, chunking: &Chunking) -> Result<Vec<Region>> {
        let mut idx = Vec::new();
        (0..self.len())
            .map(|i| {
                self.write_index_at(i, &mut idx);
                Ok(chunking.chunk_elements(&idx)?)
            })
            .collect()
    }

    /// Total bytes the plan transfers.
    pub(crate) fn bytes(&self) -> usize {
        self.entries.len() * self.chunk_bytes as usize
    }

    /// Write the chunk index of entry `i` into `scratch` (no allocation
    /// once `scratch` has capacity).
    pub fn write_index_at(&self, i: usize, scratch: &mut Vec<usize>) {
        let (_, run, step) = self.entries[i];
        self.runs[run as usize].write_index_at(step as usize, scratch);
    }

    /// The indexed filetype over the planned chunk addresses (the paper's
    /// `filetype`), with adjacent chunks merged into one block.
    pub(crate) fn filetype(&self) -> Result<Option<Datatype>> {
        if self.entries.is_empty() {
            return Ok(None);
        }
        let base = Datatype::contiguous(self.chunk_bytes);
        let mut lens: Vec<usize> = Vec::new();
        let mut displs: Vec<usize> = Vec::new();
        for &(addr, _, _) in &self.entries {
            match (lens.last_mut(), displs.last()) {
                (Some(l), Some(&d)) if d + *l == addr as usize => *l += 1,
                _ => {
                    lens.push(1);
                    displs.push(addr as usize);
                }
            }
        }
        Ok(Some(Datatype::indexed(&lens, &displs, &base)?))
    }

    /// The plan's file byte ranges `(offset, len)` in increasing offset
    /// order, adjacent chunks merged — the vectored request the
    /// independent fast path issues directly.
    pub(crate) fn byte_extents(&self) -> Vec<(u64, u64)> {
        self.byte_extents_of(0..self.len())
    }

    /// [`ChunkPlan::byte_extents`] of the entries in `range` only.
    fn byte_extents_of(&self, range: Range<usize>) -> Vec<(u64, u64)> {
        let cb = self.chunk_bytes;
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &(addr, _, _) in &self.entries[range] {
            match out.last_mut() {
                Some((off, len)) if *off + *len == addr * cb => *len += cb,
                _ => out.push((addr * cb, cb)),
            }
        }
        out
    }

    /// Staging-window size in whole chunks: one stripe round of `pfs`
    /// (`n_servers × stripe_size`, so a window's requests reach every
    /// server once), at most [`STAGING_MAX_BYTES`], at least one chunk.
    fn window_chunks(&self, pfs: &Pfs) -> usize {
        let round = pfs.n_servers() as u64 * pfs.stripe_size();
        (round.min(STAGING_MAX_BYTES) / self.chunk_bytes).max(1) as usize
    }

    /// Scatter the chunk images in `bytes` — entries `first..`, one chunk
    /// per `chunk_bytes` — into `out`, the dense buffer of `region` under
    /// `strides`. Chunks outside `region` are skipped.
    pub(crate) fn scatter<T: Element>(
        &self,
        first: usize,
        bytes: &[u8],
        chunking: &Chunking,
        region: &Region,
        strides: &[u64],
        out: &mut [T],
    ) -> Result<()> {
        let cb = self.chunk_bytes as usize;
        let mut idx = Vec::new();
        for (i, chunk) in (first..).zip(bytes.chunks_exact(cb)) {
            self.write_index_at(i, &mut idx);
            let chunk_region = chunking.chunk_elements(&idx)?;
            let Some(valid) = chunk_region.intersect(region) else { continue };
            kernels::scatter_chunk(
                chunk,
                chunk_region.lo(),
                chunking.strides(),
                out,
                region.lo(),
                strides,
                &valid,
            );
        }
        Ok(())
    }

    /// Independent read of `region` in `layout` order through a bounded
    /// staging window: one `read` (a vectored extent request) per window
    /// of whole, address-sorted entries, each window scattered before the
    /// next is fetched. The window is sized from `pfs`'s stripe geometry
    /// and is never larger than the plan.
    pub(crate) fn read_windowed<T: Element>(
        &self,
        pfs: &Pfs,
        chunking: &Chunking,
        region: &Region,
        layout: Layout,
        mut read: impl FnMut(&[(u64, u64)], &mut [u8]) -> Result<()>,
    ) -> Result<Vec<T>> {
        let strides = layout.strides(&region.extents());
        let mut out = vec![T::default(); region.volume() as usize];
        let per_window = self.window_chunks(pfs);
        let cb = self.chunk_bytes as usize;
        // An error drops the buffer; the thread's next read allocates anew.
        let mut staging = STAGING.take();
        staging.resize(per_window.min(self.len()) * cb, 0);
        for first in (0..self.len()).step_by(per_window) {
            let entries = first..(first + per_window).min(self.len());
            let window = &mut staging[..entries.len() * cb];
            read(&self.byte_extents_of(entries), window)?;
            self.scatter(first, window, chunking, region, &strides, &mut out)?;
        }
        STAGING.set(staging);
        Ok(out)
    }

    /// Consume the plan into `(chunk index, address)` pairs in entry
    /// (address) order. Length-1 runs give up their index vector without
    /// cloning — the common case for zone plans.
    pub(crate) fn into_index_addr_pairs(mut self) -> Vec<(Vec<usize>, u64)> {
        self.entries
            .iter()
            .map(|&(addr, run, step)| {
                let r = &mut self.runs[run as usize];
                let idx = if r.len == 1 {
                    std::mem::take(&mut r.start)
                } else {
                    r.index_at(step as usize)
                };
                (idx, addr)
            })
            .collect()
    }
}

impl<T: Element> DrxmpHandle<T> {
    /// Plan the chunks covering an element region (run-coalesced,
    /// address-sorted entries).
    pub(crate) fn plan_region(&self, region: &Region) -> Result<ChunkPlan> {
        self.check_region(region)?;
        ChunkPlan::for_region(&self.meta, region)
    }

    /// Plan an explicit address-sorted chunk list (zone reads).
    pub(crate) fn plan_chunks(&self, chunks: Vec<(Vec<usize>, u64)>) -> ChunkPlan {
        ChunkPlan::from_pairs(chunks, self.meta.chunk_bytes())
    }

    /// Execute a plan's raw reads. `collective` uses two-phase `read_all`
    /// through an indexed file view; independent reads issue the merged
    /// extents directly as one vectored request (no view churn).
    pub(crate) fn fetch_plan(&mut self, plan: &ChunkPlan, collective: bool) -> Result<Vec<u8>> {
        let mut bytes = vec![0u8; plan.bytes()];
        if collective {
            let ft = plan.filetype()?;
            self.xta.set_view(0, ft);
            self.xta.read_all(0, &mut bytes)?;
            self.xta.set_view(0, None);
        } else {
            self.xta.read_extents(&plan.byte_extents(), &mut bytes)?;
        }
        Ok(bytes)
    }

    /// Independent read of an arbitrary element region into the requested
    /// memory layout (`DRXMP_Read`).
    pub fn read_region(&mut self, region: &Region, layout: Layout) -> Result<Vec<T>> {
        let plan = self.plan_region(region)?;
        plan.read_windowed(&self.pfs, self.meta.chunking(), region, layout, |extents, buf| {
            Ok(self.xta.read_extents(extents, buf)?)
        })
    }

    /// Collective read (`DRXMP_Read_all`): every rank passes its own region
    /// (possibly empty — pass `None`), and the aggregate request is serviced
    /// with two-phase I/O.
    pub fn read_region_all(&mut self, region: Option<&Region>, layout: Layout) -> Result<Vec<T>> {
        match region {
            Some(r) => {
                let plan = self.plan_region(r)?;
                let bytes = self.fetch_plan(&plan, true)?;
                let strides = layout.strides(&r.extents());
                let mut out = vec![T::default(); r.volume() as usize];
                plan.scatter(0, &bytes, self.meta.chunking(), r, &strides, &mut out)?;
                Ok(out)
            }
            None => {
                let plan = self.plan_chunks(Vec::new());
                let _ = self.fetch_plan(&plan, true)?;
                Ok(Vec::new())
            }
        }
    }

    /// Collective zone read: every rank reads its own zone (clipped to the
    /// valid bounds) and gets `(zone region, data)`. Ranks with empty zones
    /// participate and receive `None`.
    pub fn read_my_zone(&mut self, layout: Layout) -> Result<Option<(Region, Vec<T>)>> {
        match self.my_zone() {
            Some(zone) => {
                let data = self.read_region_all(Some(&zone), layout)?;
                Ok(Some((zone, data)))
            }
            None => {
                self.read_region_all(None, layout)?;
                Ok(None)
            }
        }
    }

    /// Collective: read every chunk this rank owns under the distribution —
    /// works for **any** [`crate::DistSpec`], including `BLOCK_CYCLIC`
    /// whose zones are not rectilinear regions. Returns `(chunk index,
    /// chunk elements in row-major order)` pairs sorted by file address.
    pub fn read_my_chunks(&mut self) -> Result<Vec<(Vec<usize>, Vec<T>)>> {
        let pairs = self.zone_chunks(self.rank())?;
        let plan = self.plan_chunks(pairs);
        let bytes = self.fetch_plan(&plan, true)?;
        let cb = self.meta.chunk_bytes() as usize;
        plan.into_index_addr_pairs()
            .into_iter()
            .enumerate()
            .map(|(i, (idx, _))| {
                let vals = drx_core::dtype::decode_slice::<T>(&bytes[i * cb..(i + 1) * cb])?;
                Ok((idx, vals))
            })
            .collect()
    }

    /// Read a single element directly from the file (independent; the
    /// paper's "accessed either directly from the file or via a remote
    /// memory access").
    pub fn get(&mut self, index: &[usize]) -> Result<T> {
        let off = self.meta.element_byte_offset(index)?;
        // Largest built-in element is Complex64 at 16 bytes: a stack
        // buffer avoids a heap allocation per element access.
        let mut buf = [0u8; 16];
        debug_assert!(T::SIZE <= buf.len());
        if self.xta.has_view() {
            self.xta.set_view(0, None);
        }
        self.xta.read_at(off, &mut buf[..T::SIZE])?;
        Ok(T::read_le(&buf[..T::SIZE]))
    }
}
