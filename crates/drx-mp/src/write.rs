//! Parallel sub-array writes (`DRXMP_Write` / `DRXMP_Write_all`).
//!
//! Writes are chunk-granular: fully covered chunks are assembled directly
//! from the user buffer; partially covered chunks are read first
//! (read-modify-write) so neighbouring elements survive. Independent
//! writes run through [`ChunkPlan::write_windowed`], one staging window at
//! a time. The collective variants perform both the pre-read and the write
//! as two-phase collective I/O over a region-sized buffer. Concurrent
//! writers must target disjoint regions (zones are disjoint by
//! construction), matching MPI-IO's semantics for overlapping access.

use crate::error::{MpError, Result};
use crate::handle::DrxmpHandle;
use crate::read::{check_buffer, ChunkPlan};
use drx_core::{Element, Layout, Region};

impl<T: Element> DrxmpHandle<T> {
    /// Assemble the chunk images of a collective write of `region` from
    /// `data`, reading the partially covered chunks collectively first.
    fn assemble_chunks(
        &mut self,
        region: &Region,
        layout: Layout,
        data: &[T],
    ) -> Result<(ChunkPlan, Vec<u8>)> {
        check_buffer(region, data.len())?;
        let plan = ChunkPlan::for_region(&self.meta, region)?;
        let chunking = self.meta.chunking();
        let boxes = plan.boxes(0..plan.len(), chunking, region).collect::<Result<Vec<_>>>()?;
        // Which planned chunks are only partially covered by the region?
        // Entries are address-sorted, so `partial` comes out pre-sorted.
        let mut partial: Vec<(Vec<usize>, u64)> = Vec::new();
        for (i, (chunk_box, valid)) in boxes.iter().enumerate() {
            if valid.as_ref() != Some(chunk_box) {
                let mut idx = Vec::new();
                plan.write_index_at(i, &mut idx);
                partial.push((idx, plan.entries[i].0));
            }
        }
        let partial_plan = self.plan_chunks(partial);
        // Guard against silent corruption: two ranks read-modify-writing
        // the *same* partial chunk race at chunk granularity (the reason
        // the paper partitions along chunk boundaries). Detect it
        // collectively and fail loudly on every rank.
        let mine: Vec<u64> = partial_plan.addrs().collect();
        let all = self.comm.allgather_vec::<u64>(&mine)?;
        let mut seen = std::collections::HashMap::new();
        for (rank, addrs) in all.iter().enumerate() {
            for &a in addrs {
                if let Some(prev) = seen.insert(a, rank) {
                    return Err(MpError::Invalid(format!(
                        "collective write conflict: ranks {prev} and {rank} both \
                         partially cover chunk {a}; align regions to chunk boundaries"
                    )));
                }
            }
        }
        let partial_bytes = self.read_plan_all(&partial_plan)?;
        // Build the chunk images: partial chunks start from their stored
        // bytes, then the region's elements are gathered in.
        let cb = self.meta.chunk_bytes() as usize;
        let mut bytes = vec![0u8; plan.bytes()];
        let partial_slots = bytes
            .chunks_exact_mut(cb)
            .zip(&boxes)
            .filter(|(_, (b, valid))| valid.as_ref() != Some(b));
        for ((slot, _), image) in partial_slots.zip(partial_bytes.chunks_exact(cb)) {
            slot.copy_from_slice(image);
        }
        let strides = layout.strides(&region.extents());
        plan.gather(&mut bytes, &boxes, self.meta.chunking(), region, &strides, data);
        Ok((plan, bytes))
    }

    /// Collective write of assembled chunk images through the plan's
    /// indexed file view and two-phase I/O.
    fn write_plan_all(&mut self, plan: &ChunkPlan, bytes: &[u8]) -> Result<()> {
        self.xta.set_view(0, plan.filetype()?);
        self.xta.write_all(0, bytes)?;
        self.xta.set_view(0, None);
        Ok(())
    }

    /// Independent write of an element region from a dense buffer in the
    /// given layout (`DRXMP_Write`).
    pub fn write_region(&mut self, region: &Region, layout: Layout, data: &[T]) -> Result<()> {
        let plan = ChunkPlan::for_region(&self.meta, region)?;
        plan.write_windowed(self.xta.file(), self.meta.chunking(), region, layout, data)
    }

    /// Collective write (`DRXMP_Write_all`): every rank passes its own
    /// region and data (or `None`). The partial-chunk pre-read and the
    /// write both run as two-phase collective I/O.
    pub fn write_region_all(
        &mut self,
        region: Option<(&Region, &[T])>,
        layout: Layout,
    ) -> Result<()> {
        match region {
            Some((r, data)) => {
                let (plan, bytes) = self.assemble_chunks(r, layout, data)?;
                self.write_plan_all(&plan, &bytes)
            }
            None => {
                // Mirror the Some branch's collective sequence exactly:
                // conflict-check allgather, pre-read, write.
                let _ = self.comm.allgather_vec::<u64>(&[])?;
                let empty = self.plan_chunks(Vec::new());
                self.read_plan_all(&empty)?;
                self.write_plan_all(&empty, &[])
            }
        }
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
        self.write_plan_all(&plan, &bytes)
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
    fn collective_write_conflict_on_shared_partial_chunk_is_detected() {
        let fs = pfs();
        run_spmd(2, |comm| {
            let mut h: DrxmpHandle<i64> = DrxmpHandle::create(
                comm,
                &fs,
                "cf",
                &[8, 8],
                &[16, 8],
                DistSpec::block(vec![2, 1]),
            )
            .map_err(to_msg)?;
            // Rows 0..12 (rank 0) and 12..16 (rank 1): both partially cover
            // the chunk row 8..16 — a chunk-granular RMW race.
            let region = if comm.rank() == 0 {
                Region::new(vec![0, 0], vec![12, 8]).unwrap()
            } else {
                Region::new(vec![12, 0], vec![16, 8]).unwrap()
            };
            let data = vec![1i64; region.volume() as usize];
            let err = h
                .write_region_all(Some((&region, &data)), Layout::C)
                .expect_err("conflict must be detected");
            assert!(err.to_string().contains("write conflict"), "got: {err}");
            // Chunk-aligned regions go through fine afterwards.
            let region = if comm.rank() == 0 {
                Region::new(vec![0, 0], vec![8, 8]).unwrap()
            } else {
                Region::new(vec![8, 0], vec![16, 8]).unwrap()
            };
            let data = vec![2i64; region.volume() as usize];
            h.write_region_all(Some((&region, &data)), Layout::C).map_err(to_msg)?;
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
