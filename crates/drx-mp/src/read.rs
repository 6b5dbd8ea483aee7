//! Parallel sub-array reads (paper §IV-B, `DRXMP_Read` / `DRXMP_Read_all`).
//!
//! A read of an element region is planned as the set of chunks covering the
//! region. Planning is run-coalesced: [`ExtendibleShape::region_runs`]
//! decomposes the chunk region into arithmetic-progression address runs (one
//! `F*` owner lookup per run instead of per chunk), and [`ChunkPlan`] keeps
//! the runs plus a flat address-sorted entry list. Independent reads issue
//! the merged byte extents of each staging window directly as one vectored
//! request; collective reads build an indexed file view over the chunk
//! addresses — exactly the paper's code listing (`MPI_Type_indexed` over a
//! contiguous chunk type, then `MPI_File_read_all`) — and go through
//! two-phase I/O. Elements are scattered from chunk images to their
//! in-memory positions with the [`crate::kernels`] copy kernels in the
//! requested layout order (C or FORTRAN): the on-the-fly transposition
//! that removes the need for out-of-core transposes.
//!
//! No read or write path stages the whole region. Independent reads and
//! writes (here and in [`crate::DrxFile`]) share one staging loop,
//! [`ChunkPlan::read_windowed`] and [`ChunkPlan::write_windowed`], that
//! moves the address-sorted entries one bounded window at a time — one
//! stripe round of the file system — and runs the copy kernel on each
//! window while it is still in cache. A write reads back only the
//! partially covered chunks of a window. A collective read
//! ([`ChunkPlan::read_collective`]) aligns the two-phase domains to the
//! chunk size and scatters each piece of whole chunk images straight from
//! the buffer it was read or received into, so its largest transient is
//! one aggregator domain (the aggregate request over the ranks). Those
//! exchange buffers are recycled within the communicator group, so from a
//! group's second collective on, a read's only fresh region-sized memory
//! is the `Vec` it returns.
//! Collective writes (in [`crate::write`]) name only the element rows they
//! cover, so they need no read-back, and gather straight from the caller's
//! buffer into the send buffers.
//!
//! [`ExtendibleShape::region_runs`]: drx_core::ExtendibleShape::region_runs

use crate::error::{MpError, Result};
use crate::handle::DrxmpHandle;
use crate::kernels;
use drx_core::plan::ChunkRun;
use drx_core::{ArrayMeta, Chunking, Element, Layout, Region};
use drx_msg::{Datatype, MsgFile};
use drx_pfs::PfsFile;
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
/// windowed walk over the payload file, or a walk over cached chunk frames.
///
/// This is the one region engine: `DrxFile`, `CachedDrxFile`, `DrxmpHandle`
/// and the `drx-server` region pipeline all validate and plan through
/// [`ChunkPlan::for_region`] and walk chunk boxes with
/// [`ChunkPlan::boxes`]; independent reads and writes share one staging
/// loop.
pub struct ChunkPlan {
    /// Run decomposition, in row-major chunk-index order (runs from
    /// different rows may interleave in address space).
    pub(crate) runs: Vec<ChunkRun>,
    /// `(address, run, step)` per planned chunk, sorted by address. Entry
    /// `i` is chunk image `i` of the plan's view and staging windows.
    pub(crate) entries: Vec<(u64, u32, u32)>,
    pub(crate) chunk_bytes: u64,
}

impl ChunkPlan {
    /// Check `region` against the array `meta` describes
    /// ([`ArrayMeta::check_region`]), then plan the chunks covering it:
    /// run-coalesced `F*` planning, entries sorted by address.
    pub fn for_region(meta: &ArrayMeta, region: &Region) -> Result<ChunkPlan> {
        meta.check_region(region)?;
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

    /// Write the chunk index of entry `i` into `scratch` (no allocation
    /// once `scratch` has capacity).
    fn write_index_at(&self, i: usize, scratch: &mut Vec<usize>) {
        let (_, run, step) = self.entries[i];
        self.runs[run as usize].write_index_at(step as usize, scratch);
    }

    /// The chunk walk: for each entry in `entries`, in order, the chunk's
    /// element box — the whole allocated chunk, slack beyond the element
    /// bounds included — and that box's intersection with `region`
    /// (`None` when they are disjoint). A chunk is fully covered when the
    /// two are equal.
    pub fn boxes<'a>(
        &'a self,
        entries: Range<usize>,
        chunking: &'a Chunking,
        region: &'a Region,
    ) -> impl Iterator<Item = Result<(Region, Option<Region>)>> + 'a {
        let mut idx = Vec::new();
        entries.map(move |i| {
            self.write_index_at(i, &mut idx);
            let chunk_box = chunking.chunk_elements(&idx)?;
            let valid = chunk_box.intersect(region);
            Ok((chunk_box, valid))
        })
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

    /// The file byte ranges `(offset, len)` of the entries in `range`, in
    /// increasing offset order, adjacent chunks merged.
    fn window_extents(&self, range: Range<usize>) -> Vec<(u64, u64)> {
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

    /// Scatter the chunk images in `bytes` — entries `entries`, one chunk
    /// per `chunk_bytes` — into `out`, the dense buffer of `region` under
    /// `strides`. Chunks outside `region` are skipped.
    pub(crate) fn scatter<T: Element>(
        &self,
        entries: Range<usize>,
        bytes: &[u8],
        chunking: &Chunking,
        region: &Region,
        strides: &[u64],
        out: &mut [T],
    ) -> Result<()> {
        let slots = bytes.chunks_exact(self.chunk_bytes as usize);
        let (chunk_strides, lo) = (chunking.strides(), region.lo());
        for (chunk, b) in slots.zip(self.boxes(entries, chunking, region)) {
            let (chunk_box, Some(valid)) = b? else { continue };
            kernels::scatter_chunk(chunk, chunk_box.lo(), chunk_strides, out, lo, strides, &valid);
        }
        Ok(())
    }

    /// Gather `data`, the dense buffer of `region` under `strides`, into
    /// the chunk images in `bytes` — one per entry, whose `boxes` are
    /// given. Bytes outside `region` are left as they are.
    fn gather<T: Element>(
        &self,
        bytes: &mut [u8],
        boxes: &[(Region, Option<Region>)],
        chunking: &Chunking,
        region: &Region,
        strides: &[u64],
        data: &[T],
    ) {
        let slots = bytes.chunks_exact_mut(self.chunk_bytes as usize);
        let (chunk_strides, lo) = (chunking.strides(), region.lo());
        for (chunk, (chunk_box, valid)) in slots.zip(boxes) {
            let Some(valid) = valid else { continue };
            kernels::gather_chunk(data, lo, strides, chunk, chunk_box.lo(), chunk_strides, valid);
        }
    }

    /// The one staging loop of independent I/O: visit the address-sorted
    /// entries one bounded window at a time, handing `f` each window's
    /// entry range and its staging slots. A window is one stripe round of
    /// `file` (`n_servers × stripe_size`, so its requests reach every
    /// server once), at most [`STAGING_MAX_BYTES`], at least one chunk,
    /// and never larger than the plan. The staging buffer is the calling
    /// thread's and is not cleared between windows.
    fn for_each_window(
        &self,
        file: &PfsFile,
        mut f: impl FnMut(Range<usize>, &mut [u8]) -> Result<()>,
    ) -> Result<()> {
        let cb = self.chunk_bytes as usize;
        let per_window = (file.stripe_round().min(STAGING_MAX_BYTES) / self.chunk_bytes).max(1);
        let per_window = per_window as usize;
        // An error drops the buffer; the thread's next call allocates anew.
        let mut staging = STAGING.take();
        staging.resize(per_window.min(self.len()) * cb, 0);
        for first in (0..self.len()).step_by(per_window) {
            let entries = first..(first + per_window).min(self.len());
            let window = &mut staging[..entries.len() * cb];
            f(entries, window)?;
        }
        STAGING.set(staging);
        Ok(())
    }

    /// Independent read of `region` in `layout` order from the payload
    /// `file`: per window, one vectored read of the window's chunks, then
    /// the scatter kernel while the window is still in cache.
    pub(crate) fn read_windowed<T: Element>(
        &self,
        file: &PfsFile,
        chunking: &Chunking,
        region: &Region,
        layout: Layout,
    ) -> Result<Vec<T>> {
        let strides = layout.strides(&region.extents());
        let mut out = vec![T::default(); region.volume() as usize];
        self.for_each_window(file, |entries, window| {
            file.read_extents_into(&self.window_extents(entries.clone()), window)?;
            self.scatter(entries, window, chunking, region, &strides, &mut out)
        })?;
        Ok(out)
    }

    /// Collective read of the planned chunks: one two-phase read through
    /// the indexed chunk view on `xta`, with aggregator domains aligned to
    /// the chunk size so every piece is whole chunk images. `land(entries,
    /// images)` gets each piece as it arrives — an aggregator's own share
    /// after its read, every other share straight from the exchange — so
    /// no buffer of the whole plan is ever built.
    pub(crate) fn read_collective(
        &self,
        xta: &mut MsgFile,
        mut land: impl FnMut(Range<usize>, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let cb = self.chunk_bytes;
        xta.set_view(0, self.filetype()?);
        let read = xta.read_all_with(0, self.len() as u64 * cb, cb, |pos, images: &[u8]| {
            let first = pos / cb as usize;
            land(first..first + images.len() / cb as usize, images)
        });
        xta.set_view(0, None);
        read
    }

    /// Independent write of `data`, the dense buffer of `region` in
    /// `layout` order, to the payload `file`: per window, one piece read
    /// of only the partially covered chunks straight into their staging
    /// slots (so neighbouring elements and edge-chunk slack survive), the
    /// gather kernel, then one vectored write of the whole window. Fully
    /// covered chunks are never read: the gather overwrites every byte.
    pub(crate) fn write_windowed<T: Element>(
        &self,
        file: &PfsFile,
        chunking: &Chunking,
        region: &Region,
        layout: Layout,
        data: &[T],
    ) -> Result<()> {
        check_buffer(region, data.len())?;
        let strides = layout.strides(&region.extents());
        let cb = self.chunk_bytes as usize;
        let mut boxes = Vec::new();
        self.for_each_window(file, |entries, window| {
            boxes.clear();
            for b in self.boxes(entries.clone(), chunking, region) {
                boxes.push(b?);
            }
            let slots = window.chunks_exact_mut(cb).zip(&self.entries[entries.clone()]);
            file.read_pieces(
                slots
                    .zip(&boxes)
                    .filter(|(_, (chunk_box, valid))| valid.as_ref() != Some(chunk_box))
                    .map(|((slot, &(addr, _, _)), _)| (addr * self.chunk_bytes, slot)),
            )?;
            self.gather(window, &boxes, chunking, region, &strides, data);
            file.write_extents(&self.window_extents(entries), window)?;
            Ok(())
        })
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

/// Check that a dense buffer of `len` elements covers `region` exactly.
pub(crate) fn check_buffer(region: &Region, len: usize) -> Result<()> {
    let n = region.volume() as usize;
    if len != n {
        return Err(MpError::Core(drx_core::DrxError::BufferSize { expected: n, got: len }));
    }
    Ok(())
}

impl<T: Element> DrxmpHandle<T> {
    /// Plan an explicit address-sorted chunk list (zone reads).
    pub(crate) fn plan_chunks(&self, chunks: Vec<(Vec<usize>, u64)>) -> ChunkPlan {
        ChunkPlan::from_pairs(chunks, self.meta.chunk_bytes())
    }

    /// Independent read of an arbitrary element region into the requested
    /// memory layout (`DRXMP_Read`).
    pub fn read_region(&mut self, region: &Region, layout: Layout) -> Result<Vec<T>> {
        let plan = ChunkPlan::for_region(&self.meta, region)?;
        plan.read_windowed(self.xta.file(), self.meta.chunking(), region, layout)
    }

    /// Collective read (`DRXMP_Read_all`): every rank passes its own region
    /// (possibly empty — pass `None`), and the aggregate request is serviced
    /// with two-phase I/O.
    pub fn read_region_all(&mut self, region: Option<&Region>, layout: Layout) -> Result<Vec<T>> {
        let Some(r) = region else {
            self.plan_chunks(Vec::new()).read_collective(&mut self.xta, |_, _| Ok(()))?;
            return Ok(Vec::new());
        };
        let plan = ChunkPlan::for_region(&self.meta, r)?;
        let strides = layout.strides(&r.extents());
        let mut out = vec![T::default(); r.volume() as usize];
        plan.read_collective(&mut self.xta, |entries, images| {
            plan.scatter(entries, images, self.meta.chunking(), r, &strides, &mut out)
        })?;
        Ok(out)
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
        let plan = self.plan_chunks(self.zone_chunks(self.rank())?);
        let cb = plan.chunk_bytes as usize;
        let mut vals: Vec<Vec<T>> = vec![Vec::new(); plan.len()];
        plan.read_collective(&mut self.xta, |entries, images| {
            for (slot, image) in vals[entries].iter_mut().zip(images.chunks_exact(cb)) {
                *slot = drx_core::dtype::decode_slice(image)?;
            }
            Ok(())
        })?;
        let indices = plan.into_index_addr_pairs().into_iter().map(|(idx, _)| idx);
        Ok(indices.zip(vals).collect())
    }

    /// Read a single element directly from the file (independent; the
    /// paper's "accessed either directly from the file or via a remote
    /// memory access").
    pub fn get(&self, index: &[usize]) -> Result<T> {
        self.store.get(self.meta.element_byte_offset(index)?)
    }
}
