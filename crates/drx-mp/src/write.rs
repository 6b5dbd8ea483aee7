//! Parallel sub-array writes (`DRXMP_Write` / `DRXMP_Write_all`).
//!
//! Independent writes are chunk-granular and run through
//! [`ChunkPlan::write_windowed`], one staging window at a time: fully
//! covered chunks are gathered straight from the user buffer, partially
//! covered ones are read first (read-modify-write) so neighbouring
//! elements and edge-chunk slack survive.
//!
//! A collective write names only the bytes it covers, as the paper's
//! `MPI_File_write_all` through an indexed file view does: the view lists
//! the region's element rows inside each planned chunk, and one two-phase
//! `write_all` moves them. Nothing is read back, and ranks writing
//! disjoint regions that share a chunk write disjoint bytes. Overlapping
//! regions land in an unspecified order, as in MPI-IO. The view bytes are
//! never packed into a buffer of their own: the two-phase engine pulls
//! each aggregator's pieces with the gather kernel straight from the
//! caller's data (`RowView::fill`), so the largest transient is the
//! rank's send buffers. Those are the communicator group's recycled
//! exchange buffers, so a group's collective writes after its first
//! allocate no send buffer.

use crate::error::{MpError, Result};
use crate::handle::DrxmpHandle;
use crate::kernels;
use crate::read::{check_buffer, ChunkPlan};
use drx_core::dtype::encode_into;
use drx_core::index::{for_each_offset_pair, for_each_row_pair, row_major_unflatten};
use drx_core::{ArrayMeta, Element, Layout, Region};
use drx_msg::Datatype;

/// The view bytes of a collective write of `region`: each covered chunk
/// box's elements in row-major order, box after box, chunks in address
/// order.
struct RowView {
    /// Each covered box with the view byte position it starts at.
    boxes: Vec<(usize, Region)>,
    /// Total view bytes.
    len: usize,
}

impl RowView {
    /// The element-row file view of a write of `region` — per planned
    /// chunk, the covered box's rows inside the chunk — and its bytes.
    fn new<T: Element>(meta: &ArrayMeta, region: &Region) -> Result<(Datatype, RowView)> {
        let plan = ChunkPlan::for_region(meta, region)?;
        let chunking = meta.chunking();
        let (cs, chunk_elems) = (chunking.strides(), chunking.chunk_elems() as usize);
        let (mut lens, mut displs, mut boxes) = (Vec::new(), Vec::new(), Vec::new());
        let mut len = 0;
        for (b, addr) in plan.boxes(0..plan.len(), chunking, region).zip(plan.addrs()) {
            let (chunk_box, Some(v)) = b? else { continue };
            let vs = Layout::C.strides(&v.extents());
            // Adjacent rows merge into one block, so a fully covered run of
            // chunks is one entry, not one per row.
            for_each_row_pair(&v, chunk_box.lo(), cs, v.lo(), &vs, |off, _, n| {
                let at = addr as usize * chunk_elems + off as usize;
                match (lens.last_mut(), displs.last()) {
                    (Some(last), Some(&d)) if d + *last == at => *last += n,
                    _ => {
                        lens.push(n);
                        displs.push(at);
                    }
                }
            });
            let start = len;
            len += v.volume() as usize * T::SIZE;
            boxes.push((start, v));
        }
        let filetype = Datatype::indexed(&lens, &displs, &Datatype::contiguous(T::SIZE as u64))?;
        Ok((filetype, RowView { boxes, len }))
    }

    /// Fill `out` with the view bytes at view position `pos`, gathered
    /// from `data`, the dense buffer of `region` under `strides`. A box
    /// that `out` covers whole is one kernel call; a box cut by the piece
    /// boundaries is copied one row segment at a time.
    fn fill<T: Element>(
        &self,
        region: &Region,
        strides: &[u64],
        data: &[T],
        mut pos: usize,
        mut out: &mut [u8],
    ) -> Result<()> {
        let mut i = self.boxes.partition_point(|&(start, _)| start <= pos) - 1;
        while !out.is_empty() {
            let (start, v) = &self.boxes[i];
            let size = v.volume() as usize * T::SIZE;
            let take = (size - (pos - start)).min(out.len());
            let (dst, rest) = std::mem::take(&mut out).split_at_mut(take);
            if take == size {
                let vs = Layout::C.strides(&v.extents());
                kernels::gather_chunk(data, region.lo(), strides, dst, v.lo(), &vs, v);
            } else {
                gather_segments(data, region, strides, v, (pos - start) / T::SIZE, dst)?;
            }
            (pos, out, i) = (pos + take, rest, i + 1);
        }
        Ok(())
    }
}

/// Gather elements `first..` of box `v` in row-major order — as many as
/// `dst` holds — from `data`, the dense buffer of `region` under
/// `strides`: one kernel call per row segment.
fn gather_segments<T: Element>(
    data: &[T],
    region: &Region,
    strides: &[u64],
    v: &Region,
    first: usize,
    dst: &mut [u8],
) -> Result<()> {
    let extents = v.extents();
    let row = extents[extents.len() - 1];
    let (mut e, end) = (first, first + dst.len() / T::SIZE);
    while e < end {
        let n = (row - e % row).min(end - e);
        let rel = row_major_unflatten(e as u64, &extents)?;
        let lo: Vec<usize> = v.lo().iter().zip(&rel).map(|(&l, &r)| l + r).collect();
        let mut hi: Vec<usize> = lo.iter().map(|&l| l + 1).collect();
        hi[lo.len() - 1] = lo[lo.len() - 1] + n;
        let seg = Region::new(lo, hi)?;
        let at = (e - first) * T::SIZE;
        let segment = &mut dst[at..at + n * T::SIZE];
        let ss = Layout::C.strides(&seg.extents());
        kernels::gather_chunk(data, region.lo(), strides, segment, seg.lo(), &ss, &seg);
        e += n;
    }
    Ok(())
}

impl<T: Element> DrxmpHandle<T> {
    /// Collective two-phase write of `len` bytes through the file view
    /// `view`, pulled from `source`; aggregator domains align to the
    /// element size. The identity view is restored whether or not the
    /// write succeeds.
    fn write_view_all(
        &mut self,
        view: Option<Datatype>,
        len: usize,
        source: impl FnMut(usize, &mut [u8]) -> Result<()>,
    ) -> Result<()> {
        self.xta.set_view(0, view);
        let written = self.xta.write_all_with(0, len as u64, T::SIZE as u64, source);
        self.xta.set_view(0, None);
        written
    }

    /// Independent write of an element region from a dense buffer in the
    /// given layout (`DRXMP_Write`).
    pub fn write_region(&mut self, region: &Region, layout: Layout, data: &[T]) -> Result<()> {
        let plan = ChunkPlan::for_region(&self.meta, region)?;
        plan.write_windowed(self.xta.file(), self.meta.chunking(), region, layout, data)
    }

    /// Collective write (`DRXMP_Write_all`): every rank passes its own
    /// region and data (or `None`). One two-phase `write_all` through an
    /// element-row file view writes exactly the covered bytes; ranks
    /// passing `None` take part with an empty view.
    pub fn write_region_all(
        &mut self,
        region: Option<(&Region, &[T])>,
        layout: Layout,
    ) -> Result<()> {
        let Some((r, data)) = region else {
            return self.write_view_all(None, 0, |_, _| Ok(()));
        };
        check_buffer(r, data.len())?;
        let (filetype, view) = RowView::new::<T>(&self.meta, r)?;
        let strides = layout.strides(&r.extents());
        self.write_view_all(Some(filetype), view.len, |pos, out| {
            view.fill(r, &strides, data, pos, out)
        })
    }

    /// Collective zone write: every rank writes `data` into its own zone.
    pub fn write_my_zone(&mut self, layout: Layout, data: Option<&[T]>) -> Result<()> {
        match (self.my_zone(), data) {
            (Some(zone), Some(d)) => self.write_region_all(Some((&zone, d)), layout),
            (None, None) => self.write_region_all(None, layout),
            (Some(zone), None) => Err(MpError::Invalid(format!(
                "rank {} owns zone {:?} but passed no data",
                self.rank(),
                zone
            ))),
            (None, Some(_)) => {
                Err(MpError::Invalid(format!("rank {} owns no zone but passed data", self.rank())))
            }
        }
    }

    /// Collective: write whole chunks this rank owns (the counterpart of
    /// [`DrxmpHandle::read_my_chunks`]; any distribution). Each entry must
    /// be an owned chunk index with exactly `chunk_elems` values in
    /// row-major order.
    pub fn write_my_chunks(&mut self, chunks: &[(Vec<usize>, Vec<T>)]) -> Result<()> {
        let per_chunk = self.meta.chunking().chunk_elems() as usize;
        let me = self.rank();
        let mut plan_pairs = Vec::with_capacity(chunks.len());
        for (idx, vals) in chunks {
            if vals.len() != per_chunk {
                return Err(MpError::Core(drx_core::DrxError::BufferSize {
                    expected: per_chunk,
                    got: vals.len(),
                }));
            }
            if self.owner_of_chunk(idx) != me {
                return Err(MpError::Invalid(format!("rank {me} does not own chunk {idx:?}")));
            }
            let addr = self.meta.grid().address(idx)?;
            plan_pairs.push((idx.clone(), addr));
        }
        // Sort the chunks by file address; the view bytes are their
        // images in that order, encoded straight from `chunks`.
        let mut order: Vec<usize> = (0..plan_pairs.len()).collect();
        order.sort_by_key(|&i| plan_pairs[i].1);
        let sorted: Vec<(Vec<usize>, u64)> =
            order.iter().map(|&i| std::mem::take(&mut plan_pairs[i])).collect();
        let plan = self.plan_chunks(sorted);
        let cb = self.meta.chunk_bytes() as usize;
        self.write_view_all(plan.filetype()?, order.len() * cb, |mut pos, mut out| {
            while !out.is_empty() {
                let vals = &chunks[order[pos / cb]].1;
                let (first, n) = (pos % cb / T::SIZE, (cb - pos % cb).min(out.len()));
                let (dst, rest) = std::mem::take(&mut out).split_at_mut(n);
                encode_into(&vals[first..first + n / T::SIZE], dst);
                (pos, out) = (pos + n, rest);
            }
            Ok(())
        })
    }

    /// Collective read-modify-write over this rank's zone: every rank reads
    /// its owned chunks, applies `f(element index, value) -> value` to each
    /// valid element, and writes the chunks back — the GA-toolkit-style
    /// "apply over the distributed array" pattern, at chunk granularity so
    /// it works for any distribution.
    pub fn update_my_zone(&mut self, mut f: impl FnMut(&[usize], T) -> T) -> Result<()> {
        let mut chunks = self.read_my_chunks()?;
        let (chunking, bounds) = (self.meta.chunking(), self.meta.element_bounds());
        let cs = chunking.strides();
        let mut e = Vec::new();
        for (idx, vals) in &mut chunks {
            let Some(valid) = chunking.chunk_valid_elements(idx, bounds)? else { continue };
            let chunk_lo = chunking.chunk_elements(idx)?.lo().to_vec();
            e.clear();
            e.extend_from_slice(valid.lo());
            for_each_offset_pair(&valid, &chunk_lo, cs, &chunk_lo, cs, |off, _| {
                vals[off as usize] = f(&e, vals[off as usize]);
                // Step `e` to the walk's next cell (row-major order).
                for j in (0..e.len()).rev() {
                    e[j] += 1;
                    if e[j] < valid.hi()[j] {
                        break;
                    }
                    e[j] = valid.lo()[j];
                }
            });
        }
        self.write_my_chunks(&chunks)
    }

    /// Write a single element directly (independent).
    pub fn set(&mut self, index: &[usize], value: T) -> Result<()> {
        self.store.set(self.meta.element_byte_offset(index)?, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::to_msg;
    use crate::serial::DrxFile;
    use crate::zones::DistSpec;
    use drx_msg::run_spmd;
    use drx_pfs::Pfs;

    fn pfs() -> Pfs {
        Pfs::memory(4, 256).unwrap()
    }

    fn tag(idx: &[usize]) -> i64 {
        idx.iter().fold(3i64, |a, &i| a * 37 + i as i64)
    }

    #[test]
    fn zone_write_then_serial_read_back() {
        let fs = pfs();
        run_spmd(4, |comm| {
            let mut h: DrxmpHandle<i64> = DrxmpHandle::create(
                comm,
                &fs,
                "a",
                &[2, 3],
                &[10, 12],
                DistSpec::block(vec![2, 2]),
            )
            .map_err(to_msg)?;
            let zone = h.my_zone().expect("all ranks own zones here");
            let data: Vec<i64> = zone.iter().map(|i| tag(&i)).collect();
            h.write_my_zone(Layout::C, Some(&data)).map_err(to_msg)?;
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
        // Serial verification.
        let f: DrxFile<i64> = DrxFile::open(&fs, "a").unwrap();
        for idx in f.meta().element_region().iter() {
            assert_eq!(f.get(&idx).unwrap(), tag(&idx), "at {idx:?}");
        }
    }

    #[test]
    fn collective_read_returns_zone_contents() {
        let fs = pfs();
        // Seed serially.
        {
            let mut f: DrxFile<i64> = DrxFile::create(&fs, "a", &[2, 3], &[10, 12]).unwrap();
            f.fill_with(tag).unwrap();
        }
        run_spmd(4, |comm| {
            let mut h: DrxmpHandle<i64> =
                DrxmpHandle::open(comm, &fs, "a", DistSpec::block(vec![2, 2])).map_err(to_msg)?;
            for layout in [Layout::C, Layout::Fortran] {
                let (zone, data) = h.read_my_zone(layout).map_err(to_msg)?.expect("zone");
                let extents = zone.extents();
                let strides = layout.strides(&extents);
                for idx in zone.iter() {
                    let rel: Vec<usize> = idx.iter().zip(zone.lo()).map(|(&a, &l)| a - l).collect();
                    let pos = drx_core::index::offset_with_strides(&rel, &strides) as usize;
                    assert_eq!(data[pos], tag(&idx), "layout {layout:?} at {idx:?}");
                }
            }
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn independent_and_collective_reads_agree() {
        let fs = pfs();
        {
            let mut f: DrxFile<i64> = DrxFile::create(&fs, "a", &[3, 2], &[9, 8]).unwrap();
            f.fill_with(tag).unwrap();
        }
        run_spmd(2, |comm| {
            let mut h: DrxmpHandle<i64> =
                DrxmpHandle::open(comm, &fs, "a", DistSpec::block(vec![2, 1])).map_err(to_msg)?;
            let region = Region::new(vec![1, 1], vec![8, 7]).unwrap();
            let ind = h.read_region(&region, Layout::C).map_err(to_msg)?;
            let coll = h.read_region_all(Some(&region), Layout::C).map_err(to_msg)?;
            assert_eq!(ind, coll);
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn partial_chunk_writes_preserve_neighbours_in_parallel() {
        let fs = pfs();
        {
            let mut f: DrxFile<i64> = DrxFile::create(&fs, "a", &[4, 4], &[8, 8]).unwrap();
            f.fill_with(tag).unwrap();
        }
        run_spmd(2, |comm| {
            let mut h: DrxmpHandle<i64> =
                DrxmpHandle::open(comm, &fs, "a", DistSpec::block(vec![2, 1])).map_err(to_msg)?;
            // Rank 0 writes rows 1..3, rank 1 writes rows 5..7 (both partial
            // chunks, disjoint).
            let region = if comm.rank() == 0 {
                Region::new(vec![1, 1], vec![3, 7]).unwrap()
            } else {
                Region::new(vec![5, 1], vec![7, 7]).unwrap()
            };
            let data = vec![-9i64; region.volume() as usize];
            h.write_region_all(Some((&region, &data)), Layout::C).map_err(to_msg)?;
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
        let f: DrxFile<i64> = DrxFile::open(&fs, "a").unwrap();
        let wrote = |i: usize, j: usize| {
            ((1..3).contains(&i) || (5..7).contains(&i)) && (1..7).contains(&j)
        };
        for i in 0..8 {
            for j in 0..8 {
                let expect = if wrote(i, j) { -9 } else { tag(&[i, j]) };
                assert_eq!(f.get(&[i, j]).unwrap(), expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn collective_writes_sharing_a_partial_chunk_both_land() {
        let fs = pfs();
        {
            let mut f: DrxFile<i64> = DrxFile::create(&fs, "cf", &[8, 8], &[16, 8]).unwrap();
            f.fill_with(tag).unwrap();
        }
        run_spmd(2, |comm| {
            let mut h: DrxmpHandle<i64> =
                DrxmpHandle::open(comm, &fs, "cf", DistSpec::block(vec![2, 1])).map_err(to_msg)?;
            // Rows 0..12 (rank 0) and 12..16 (rank 1), columns 1..7: both
            // partially cover the chunk of rows 8..16 and write disjoint
            // bytes of it.
            let rows = if comm.rank() == 0 { 0..12 } else { 12..16 };
            let region = Region::new(vec![rows.start, 1], vec![rows.end, 7]).unwrap();
            let data = vec![-1 - comm.rank() as i64; region.volume() as usize];
            h.write_region_all(Some((&region, &data)), Layout::C).map_err(to_msg)?;
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
        let f: DrxFile<i64> = DrxFile::open(&fs, "cf").unwrap();
        for i in 0..16 {
            for j in 0..8 {
                let expect = match (i, j) {
                    (_, 0 | 7) => tag(&[i, j]),
                    (0..12, _) => -1,
                    _ => -2,
                };
                assert_eq!(f.get(&[i, j]).unwrap(), expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn slice_write_into_partial_chunks_reads_nothing() {
        // The log-append shape: one (1, 32, 32) time slice into (4, 32, 32)
        // chunks, rank 0 writing and rank 1 passing nothing. On 256-byte
        // stripes the 8 KiB slice splits into two domains, so half of it
        // crosses to rank 1's aggregator; on `zones`' file system (8
        // servers, 64 KiB stripe) it lies inside one stripe unit, so one
        // aggregator owns all of it and its server sees one request.
        for (fs, requests) in [(pfs(), None), (Pfs::memory(8, 64 << 10).unwrap(), Some(1))] {
            run_spmd(2, |comm| {
                let mut h: DrxmpHandle<f64> = DrxmpHandle::create(
                    comm,
                    &fs,
                    "log",
                    &[4, 32, 32],
                    &[4, 32, 32],
                    DistSpec::block(vec![2, 1, 1]),
                )
                .map_err(to_msg)?;
                h.extend(0, 1).map_err(to_msg)?;
                let slice = Region::new(vec![4, 0, 0], vec![5, 32, 32]).unwrap();
                let data: Vec<f64> = (0..slice.volume()).map(|v| v as f64).collect();
                if comm.rank() == 0 {
                    fs.reset_stats();
                }
                comm.barrier()?;
                let mine = (comm.rank() == 0).then_some((&slice, data.as_slice()));
                h.write_region_all(mine, Layout::C).map_err(to_msg)?;
                if comm.rank() == 0 {
                    let stats = fs.stats().per_server;
                    assert_eq!(stats.iter().map(|s| s.read_requests).sum::<u64>(), 0);
                    let written: u64 = stats.iter().map(|s| s.bytes_written).sum();
                    assert_eq!(written, 32 * 32 * 8, "exactly the slice's bytes");
                    if let Some(n) = requests {
                        assert_eq!(fs.stats().total_requests(), n, "one request per stripe unit");
                    }
                }
                comm.barrier()?;
                let back = h.read_region(&slice, Layout::C).map_err(to_msg)?;
                assert_eq!(back, data);
                h.close().map_err(to_msg)?;
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn block_cyclic_chunk_io_round_trips() {
        let fs = pfs();
        run_spmd(4, |comm| {
            let mut h: DrxmpHandle<i64> = DrxmpHandle::create(
                comm,
                &fs,
                "bc",
                &[2, 2],
                &[8, 12],
                DistSpec::block_cyclic(vec![2, 2], vec![1, 2]),
            )
            .map_err(to_msg)?;
            // Each rank fills its owned chunks with chunk-tagged values.
            let owned = h.zone_chunks(comm.rank()).map_err(to_msg)?;
            let per_chunk = h.meta().chunking().chunk_elems() as usize;
            let payload: Vec<(Vec<usize>, Vec<i64>)> = owned
                .iter()
                .map(|(idx, addr)| (idx.clone(), vec![*addr as i64; per_chunk]))
                .collect();
            h.write_my_chunks(&payload).map_err(to_msg)?;
            // Read back collectively and verify.
            let back = h.read_my_chunks().map_err(to_msg)?;
            assert_eq!(back.len(), owned.len());
            for ((idx, vals), (oidx, addr)) in back.iter().zip(&owned) {
                assert_eq!(idx, oidx);
                assert!(vals.iter().all(|&v| v == *addr as i64));
            }
            // Writing a chunk we don't own is rejected.
            let foreign = owned.first().map(|(idx, _)| idx.clone());
            if let Some(mut fidx) = foreign {
                // Find some chunk owned by another rank.
                let total_region = h.meta().grid().full_region();
                for cand in total_region.iter() {
                    if h.owner_of_chunk(&cand) != comm.rank() {
                        fidx = cand;
                        break;
                    }
                }
                if h.owner_of_chunk(&fidx) != comm.rank() {
                    assert!(h.write_my_chunks(&[(fidx, vec![0; per_chunk])]).is_err());
                }
            }
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
        // Serial check: every chunk holds its own address as value.
        let f: DrxFile<i64> = DrxFile::open(&fs, "bc").unwrap();
        for addr in 0..f.meta().total_chunks() {
            let vals = f.read_chunk_raw(addr).unwrap();
            assert!(vals.iter().all(|&v| v == addr as i64), "chunk {addr}");
        }
    }

    #[test]
    fn update_my_zone_applies_everywhere_once() {
        let fs = pfs();
        {
            let mut f: DrxFile<i64> = DrxFile::create(&fs, "u", &[3, 3], &[10, 10]).unwrap();
            f.fill_with(tag).unwrap();
        }
        for dist in [DistSpec::block(vec![2, 2]), DistSpec::block_cyclic(vec![2, 2], vec![1, 1])] {
            // Reset contents between distributions.
            {
                let mut f: DrxFile<i64> = DrxFile::open(&fs, "u").unwrap();
                f.fill_with(tag).unwrap();
            }
            let fs2 = fs.clone();
            run_spmd(4, move |comm| {
                let mut h: DrxmpHandle<i64> =
                    DrxmpHandle::open(comm, &fs2, "u", dist.clone()).map_err(to_msg)?;
                h.update_my_zone(|idx, v| v * 2 + idx[0] as i64).map_err(to_msg)?;
                h.close().map_err(to_msg)?;
                Ok(())
            })
            .unwrap();
            let f: DrxFile<i64> = DrxFile::open(&fs, "u").unwrap();
            for idx in f.meta().element_region().iter() {
                assert_eq!(
                    f.get(&idx).unwrap(),
                    tag(&idx) * 2 + idx[0] as i64,
                    "at {idx:?} under {:?}",
                    "dist"
                );
            }
        }
    }

    #[test]
    fn update_my_zone_applies_in_three_dimensions() {
        // Bounds cut the edge chunks in every dimension.
        let fs = pfs();
        {
            let mut f: DrxFile<i64> = DrxFile::create(&fs, "u3", &[2, 3, 2], &[5, 7, 3]).unwrap();
            f.fill_with(tag).unwrap();
        }
        for dist in
            [DistSpec::block(vec![2, 1, 1]), DistSpec::block_cyclic(vec![1, 2, 1], vec![1, 1, 1])]
        {
            {
                let mut f: DrxFile<i64> = DrxFile::open(&fs, "u3").unwrap();
                f.fill_with(tag).unwrap();
            }
            let fs2 = fs.clone();
            run_spmd(2, move |comm| {
                let mut h: DrxmpHandle<i64> =
                    DrxmpHandle::open(comm, &fs2, "u3", dist.clone()).map_err(to_msg)?;
                h.update_my_zone(|idx, v| v * 2 + (idx[0] * 100 + idx[1] * 10 + idx[2]) as i64)
                    .map_err(to_msg)?;
                h.close().map_err(to_msg)?;
                Ok(())
            })
            .unwrap();
            let f: DrxFile<i64> = DrxFile::open(&fs, "u3").unwrap();
            for idx in f.meta().element_region().iter() {
                let expect = tag(&idx) * 2 + (idx[0] * 100 + idx[1] * 10 + idx[2]) as i64;
                assert_eq!(f.get(&idx).unwrap(), expect, "at {idx:?}");
            }
        }
    }

    #[test]
    fn get_set_single_elements_in_parallel() {
        let fs = pfs();
        run_spmd(2, |comm| {
            let mut h: DrxmpHandle<f64> =
                DrxmpHandle::create(comm, &fs, "e", &[2, 2], &[4, 4], DistSpec::block(vec![2, 1]))
                    .map_err(to_msg)?;
            // Each rank writes one element in its own zone.
            let idx = if comm.rank() == 0 { [0, 0] } else { [3, 3] };
            h.set(&idx, comm.rank() as f64 + 0.5).map_err(to_msg)?;
            comm.barrier()?;
            // Cross-read.
            let peer_idx = if comm.rank() == 0 { [3, 3] } else { [0, 0] };
            let v = h.get(&peer_idx).map_err(to_msg)?;
            assert_eq!(v, (1 - comm.rank()) as f64 + 0.5);
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn parallel_extension_then_write_into_new_region() {
        let fs = pfs();
        run_spmd(4, |comm| {
            let mut h: DrxmpHandle<i64> = DrxmpHandle::create(
                comm,
                &fs,
                "grow",
                &[2, 3],
                &[4, 6],
                DistSpec::block(vec![2, 2]),
            )
            .map_err(to_msg)?;
            let zone = h.my_zone().expect("zone");
            let data: Vec<i64> = zone.iter().map(|i| tag(&i)).collect();
            h.write_my_zone(Layout::C, Some(&data)).map_err(to_msg)?;
            // Grow dimension 0 (time-like) and write the new region from
            // rank 0 only.
            h.extend(0, 4).map_err(to_msg)?;
            assert_eq!(h.bounds(), &[8, 6]);
            let new_region = Region::new(vec![4, 0], vec![8, 6]).unwrap();
            if comm.rank() == 0 {
                let nd: Vec<i64> = new_region.iter().map(|i| tag(&i) + 1).collect();
                h.write_region_all(Some((&new_region, &nd)), Layout::C).map_err(to_msg)?;
            } else {
                h.write_region_all(None, Layout::C).map_err(to_msg)?;
            }
            // Old zone data must be intact (collective re-read).
            let (z2, back) = h.read_my_zone(Layout::C).map_err(to_msg)?.expect("zone");
            for (pos, idx) in z2.iter().enumerate() {
                let expect = if idx[0] < 4 { tag(&idx) } else { tag(&idx) + 1 };
                assert_eq!(back[pos], expect, "at {idx:?}");
            }
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
    }
}
