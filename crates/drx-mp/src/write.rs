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
//! regions land in an unspecified order, as in MPI-IO.

use crate::error::{MpError, Result};
use crate::handle::DrxmpHandle;
use crate::kernels;
use crate::read::{check_buffer, ChunkPlan};
use drx_core::index::for_each_row_pair;
use drx_core::{Element, Layout, Region};
use drx_msg::Datatype;

impl<T: Element> DrxmpHandle<T> {
    /// Collective two-phase write of `bytes` through the file view `view`;
    /// the identity view is restored whether or not the write succeeds.
    fn write_view_all(&mut self, view: Option<Datatype>, bytes: &[u8]) -> Result<()> {
        self.xta.set_view(0, view);
        let written = self.xta.write_all(0, bytes);
        self.xta.set_view(0, None);
        Ok(written?)
    }

    /// The element-row file view of a write of `region` from `data` (in
    /// `layout` order) and the packed buffer it selects: per planned chunk
    /// in address order, the covered box's rows inside the chunk, and its
    /// elements in row-major order.
    fn row_view(&self, region: &Region, layout: Layout, data: &[T]) -> Result<(Datatype, Vec<u8>)> {
        check_buffer(region, data.len())?;
        let plan = ChunkPlan::for_region(&self.meta, region)?;
        let (chunking, strides) = (self.meta.chunking(), layout.strides(&region.extents()));
        let (cs, chunk_elems) = (chunking.strides(), chunking.chunk_elems() as usize);
        let (mut lens, mut displs) = (Vec::new(), Vec::new());
        let mut packed = vec![0u8; data.len() * T::SIZE];
        let mut pos = 0;
        for (b, addr) in plan.boxes(0..plan.len(), chunking, region).zip(plan.addrs()) {
            let (chunk_box, Some(v)) = b? else { continue };
            let block = &mut packed[pos..pos + v.volume() as usize * T::SIZE];
            let vs = Layout::C.strides(&v.extents());
            kernels::gather_chunk(data, region.lo(), &strides, block, v.lo(), &vs, &v);
            pos += block.len();
            // `indexed` merges adjacent rows, so a fully covered chunk is
            // one block.
            for_each_row_pair(&v, chunk_box.lo(), cs, v.lo(), &vs, |off, _, n| {
                lens.push(n);
                displs.push(addr as usize * chunk_elems + off as usize);
            });
        }
        Ok((Datatype::indexed(&lens, &displs, &Datatype::contiguous(T::SIZE as u64))?, packed))
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
        let (view, packed) = match region {
            Some((r, data)) => self.row_view(r, layout, data)?,
            None => (Datatype::contiguous(0), Vec::new()),
        };
        self.write_view_all(Some(view), &packed)
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
        // Sort data along with the plan by file address.
        let mut order: Vec<usize> = (0..plan_pairs.len()).collect();
        order.sort_by_key(|&i| plan_pairs[i].1);
        let sorted: Vec<(Vec<usize>, u64)> =
            order.iter().map(|&i| std::mem::take(&mut plan_pairs[i])).collect();
        let mut bytes = Vec::with_capacity(chunks.len() * self.meta.chunk_bytes() as usize);
        for &i in &order {
            bytes.extend_from_slice(&drx_core::dtype::encode_slice(&chunks[i].1));
        }
        let plan = self.plan_chunks(sorted);
        self.write_view_all(plan.filetype()?, &bytes)
    }

    /// Collective read-modify-write over this rank's zone: every rank reads
    /// its owned chunks, applies `f(element index, value) -> value` to each
    /// valid element, and writes the chunks back — the GA-toolkit-style
    /// "apply over the distributed array" pattern, at chunk granularity so
    /// it works for any distribution.
    pub fn update_my_zone(&mut self, mut f: impl FnMut(&[usize], T) -> T) -> Result<()> {
        let mut chunks = self.read_my_chunks()?;
        let chunking = self.meta.chunking().clone();
        let bounds = self.meta.element_bounds().to_vec();
        for (idx, vals) in &mut chunks {
            if let Some(valid) = chunking.chunk_valid_elements(idx, &bounds)? {
                let chunk_region = chunking.chunk_elements(idx)?;
                for e in valid.iter() {
                    let within: Vec<usize> =
                        e.iter().zip(chunk_region.lo()).map(|(&a, &l)| a - l).collect();
                    let off = chunking.within_offset(&within) as usize;
                    vals[off] = f(&e, vals[off]);
                }
            }
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
        // chunks, rank 0 writing and rank 1 passing nothing.
        let fs = pfs();
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
            }
            comm.barrier()?;
            let back = h.read_region(&slice, Layout::C).map_err(to_msg)?;
            assert_eq!(back, data);
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
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
