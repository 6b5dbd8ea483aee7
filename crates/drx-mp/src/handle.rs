//! The DRX-MP handle: collective lifecycle of a parallel extendible array
//! file (paper §IV-C: `DRXMP_Init`, `DRXMP_Open`, `DRXMP_Close`,
//! `DRXMP_Terminate`).
//!
//! Every process holds a replica of the array metadata ("When a file is
//! opened, the content of the meta-data file is replicated in all
//! participating processes", §IV-A), a distribution spec describing the
//! zone decomposition, and an MPI-IO-style file handle on the `.xta`
//! payload.

use crate::error::{MpError, Result};
use crate::store::ArrayStore;
use crate::zones::DistSpec;
use drx_core::{ArrayMeta, Element, Region};
use drx_msg::{Comm, MsgError, MsgFile};
use drx_pfs::Pfs;

/// A process's handle on a parallel disk-resident extendible array —
/// the `DRXMDHdl` of the paper's C API.
pub struct DrxmpHandle<T: Element> {
    pub(crate) comm: Comm,
    pub(crate) meta: ArrayMeta,
    /// The file pair; only rank 0 commits metadata through it.
    pub(crate) store: ArrayStore,
    /// The payload bound to `comm`, for view-based collective I/O.
    pub(crate) xta: MsgFile,
    pub(crate) dist: DistSpec,
    pub(crate) _marker: std::marker::PhantomData<T>,
}

impl<T: Element> DrxmpHandle<T> {
    /// Collective create (`DRXMP_Init`): every rank passes identical
    /// parameters; rank 0 materializes and commits the file pair.
    pub fn create(
        comm: &Comm,
        pfs: &Pfs,
        base: &str,
        chunk_shape: &[usize],
        initial_bounds: &[usize],
        dist: DistSpec,
    ) -> Result<Self> {
        let meta = ArrayMeta::new(T::DTYPE, chunk_shape, initial_bounds)?;
        dist.validate(meta.rank(), comm.size())?;
        let created = match comm.rank() {
            0 => Some(ArrayStore::create(pfs, base, &meta)?),
            _ => None,
        };
        comm.barrier()?;
        let store = match created {
            Some(store) => store,
            None => ArrayStore::attach(pfs, base)?,
        };
        Ok(Self::new(comm, meta, store, dist))
    }

    /// Collective open (`DRXMP_Open`): every rank binds the file pair,
    /// rank 0 alone reads the metadata file and broadcasts its image, and
    /// every rank decodes its own replica — one `.xmd` read at any rank
    /// count, and a corrupt image fails every rank alike.
    pub fn open(comm: &Comm, pfs: &Pfs, base: &str, dist: DistSpec) -> Result<Self> {
        let store = ArrayStore::attach(pfs, base)?;
        let read = (comm.rank() == 0).then(|| store.meta_image());
        // An empty image marks a failed read: `.xmd` is never empty.
        let mine = match &read {
            Some(Ok(image)) => image.clone(),
            _ => Vec::new(),
        };
        let image = comm.bcast_bytes(0, Some(mine))?;
        if let Some(Err(e)) = read {
            return Err(e);
        }
        if image.is_empty() {
            return Err(MsgError::PeerFailed { rank: 0 }.into());
        }
        let meta = ArrayMeta::decode(&image)?;
        if meta.dtype() != T::DTYPE {
            // Collective consistency: every rank fails identically.
            return Err(MpError::DTypeMismatch { file: meta.dtype(), requested: T::DTYPE });
        }
        dist.validate(meta.rank(), comm.size())?;
        Ok(Self::new(comm, meta, store, dist))
    }

    fn new(comm: &Comm, meta: ArrayMeta, store: ArrayStore, dist: DistSpec) -> Self {
        let xta = MsgFile::new(comm, store.payload().clone());
        DrxmpHandle {
            comm: comm.clone(),
            meta,
            store,
            xta,
            dist,
            _marker: std::marker::PhantomData,
        }
    }

    /// Collective close (`DRXMP_Close`): synchronizes. The metadata is
    /// already durable: `create` and `extend` commit it.
    pub fn close(self) -> Result<()> {
        self.comm.barrier()?;
        Ok(())
    }

    /// The communicator this handle operates on.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Replicated metadata.
    pub fn meta(&self) -> &ArrayMeta {
        &self.meta
    }

    /// Instantaneous element bounds.
    pub fn bounds(&self) -> &[usize] {
        self.meta.element_bounds()
    }

    /// The distribution spec in force.
    pub fn dist(&self) -> &DistSpec {
        &self.dist
    }

    /// Commit rank 0's metadata replica through [`ArrayStore::commit`]
    /// (non-collective; `create` and `extend` already do).
    pub fn sync_meta(&self) -> Result<()> {
        if self.comm.rank() == 0 {
            self.store.commit(&self.meta)?;
        }
        Ok(())
    }

    /// Collective extension of dimension `dim` by `by` elements
    /// (paper §IV-B). Every rank updates its metadata replica
    /// deterministically; rank 0 commits it, growing the payload by
    /// appended (logically zeroed) chunks; no existing chunk moves.
    pub fn extend(&mut self, dim: usize, by: usize) -> Result<()> {
        self.meta.extend(dim, by)?;
        self.sync_meta()?;
        self.comm.barrier()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Ownership queries (every rank can answer them locally — the point of
    // metadata replication, §II-A).
    // ------------------------------------------------------------------

    /// The rank owning the chunk containing an element.
    pub fn owner_of_element(&self, element: &[usize]) -> Result<usize> {
        let (chunk, _) = self.meta.chunking().split(element)?;
        Ok(self.dist.owner_of_chunk(&chunk, self.meta.grid().bounds()))
    }

    /// The rank owning a chunk index.
    pub fn owner_of_chunk(&self, chunk: &[usize]) -> usize {
        self.dist.owner_of_chunk(chunk, self.meta.grid().bounds())
    }

    /// Chunk indices (with linear addresses) of a rank's zone, sorted by
    /// address.
    pub fn zone_chunks(&self, rank: usize) -> Result<Vec<(Vec<usize>, u64)>> {
        let chunks = self.dist.chunks_of(rank, self.meta.grid().bounds());
        let mut pairs = Vec::with_capacity(chunks.len());
        for c in chunks {
            let addr = self.meta.grid().address(&c)?;
            pairs.push((c, addr));
        }
        pairs.sort_by_key(|&(_, a)| a);
        Ok(pairs)
    }

    /// The element region of a rank's zone clipped to the valid bounds
    /// (`None` for block-cyclic distributions or empty zones).
    pub fn zone_element_region(&self, rank: usize) -> Option<Region> {
        let chunk_region = self.dist.zone_chunk_region(rank, self.meta.grid().bounds())?;
        if chunk_region.is_empty() {
            return None;
        }
        let cs = self.meta.chunking().shape();
        let lo: Vec<usize> = chunk_region.lo().iter().zip(cs).map(|(&c, &s)| c * s).collect();
        let hi: Vec<usize> = chunk_region
            .hi()
            .iter()
            .zip(cs.iter().zip(self.meta.element_bounds()))
            .map(|(&c, (&s, &n))| (c * s).min(n))
            .collect();
        let region = Region::new(lo, hi).ok()?;
        if region.is_empty() {
            None
        } else {
            Some(region)
        }
    }

    /// This process's zone element region.
    pub fn my_zone(&self) -> Option<Region> {
        self.zone_element_region(self.comm.rank())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::to_msg;
    use drx_msg::run_spmd;

    fn pfs() -> Pfs {
        Pfs::memory(4, 256).unwrap()
    }

    #[test]
    fn create_then_open_replicates_meta() {
        let fs = pfs();
        run_spmd(4, |comm| {
            let h: DrxmpHandle<f64> = DrxmpHandle::create(
                comm,
                &fs,
                "arr",
                &[2, 3],
                &[10, 12],
                DistSpec::block(vec![2, 2]),
            )
            .map_err(to_msg)?;
            assert_eq!(h.bounds(), &[10, 12]);
            assert_eq!(h.meta().grid().bounds(), &[5, 4]);
            h.close().map_err(to_msg)?;
            // Reopen on every rank; the replica must match.
            let h: DrxmpHandle<f64> =
                DrxmpHandle::open(comm, &fs, "arr", DistSpec::block(vec![2, 2])).map_err(to_msg)?;
            assert_eq!(h.meta().total_chunks(), 20);
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn open_reads_the_metadata_once_at_any_rank_count() {
        let fs = pfs();
        run_spmd(1, |comm| {
            let h: DrxmpHandle<f64> =
                DrxmpHandle::create(comm, &fs, "m", &[2, 2], &[8, 8], DistSpec::block(vec![1, 1]))
                    .map_err(to_msg)?;
            h.close().map_err(to_msg)
        })
        .unwrap();
        let open_requests = |ranks: usize| {
            fs.reset_stats();
            run_spmd(ranks, |comm| {
                let dist = DistSpec::auto(comm.size(), 2);
                let h: DrxmpHandle<f64> =
                    DrxmpHandle::open(comm, &fs, "m", dist).map_err(to_msg)?;
                h.close().map_err(to_msg)
            })
            .unwrap();
            fs.stats().total_requests()
        };
        let serial = open_requests(1);
        assert!(serial > 0, "the open reads `.xmd`");
        assert_eq!(open_requests(4), serial, "one `.xmd` read per open, not one per rank");
    }

    #[test]
    fn figure1_zone_maps() {
        // The paper's Figure 1 / code listing: the 5×4 chunk grid of
        // A[10][12] (2×3 chunks, grown as in the figure) distributed 2×2
        // gives globalMap P0={0..5}, P1={6,7,8,12,13,14}, P2={9,10,16,17},
        // P3={11,15,18,19}.
        let fs = pfs();
        run_spmd(4, |comm| {
            let mut h: DrxmpHandle<f64> = DrxmpHandle::create(
                comm,
                &fs,
                "fig1",
                &[2, 3],
                &[2, 3],
                DistSpec::block(vec![2, 2]),
            )
            .map_err(to_msg)?;
            // Reproduce the figure's growth history in element units:
            // +1 chunk column, +2 chunk rows (the figure's two uninterrupted
            // extensions), +1 column, +1 row, +1 column, +1 row.
            for (dim, by) in [(1, 3), (0, 4), (1, 3), (0, 2), (1, 3), (0, 2)] {
                h.extend(dim, by).map_err(to_msg)?;
            }
            assert_eq!(h.bounds(), &[10, 12]);
            assert_eq!(h.meta().grid().bounds(), &[5, 4]);
            let expected: [&[u64]; 4] =
                [&[0, 1, 2, 3, 4, 5], &[6, 7, 8, 12, 13, 14], &[9, 10, 16, 17], &[11, 15, 18, 19]];
            for (rank, want) in expected.iter().enumerate() {
                let addrs: Vec<u64> =
                    h.zone_chunks(rank).map_err(to_msg)?.into_iter().map(|(_, a)| a).collect();
                assert_eq!(&addrs, want, "zone of P{rank}");
            }
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn ownership_is_consistent_across_ranks() {
        let fs = pfs();
        run_spmd(4, |comm| {
            let h: DrxmpHandle<i32> = DrxmpHandle::create(
                comm,
                &fs,
                "own",
                &[2, 2],
                &[8, 8],
                DistSpec::block(vec![2, 2]),
            )
            .map_err(to_msg)?;
            // Every element's owner, computed locally, must agree globally.
            let mut owners = Vec::new();
            for i in (0..8).step_by(3) {
                for j in (0..8).step_by(3) {
                    owners.push(h.owner_of_element(&[i, j]).map_err(to_msg)? as u64);
                }
            }
            let all = comm.allgather_vec::<u64>(&owners)?;
            for other in &all {
                assert_eq!(other, &owners, "ownership disagreement");
            }
            // My zone contains exactly the elements I own.
            if let Some(zone) = h.my_zone() {
                for idx in zone.iter() {
                    assert_eq!(h.owner_of_element(&idx).map_err(to_msg)?, comm.rank());
                }
            }
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn extend_keeps_replicas_identical() {
        let fs = pfs();
        run_spmd(2, |comm| {
            let mut h: DrxmpHandle<f64> =
                DrxmpHandle::create(comm, &fs, "x", &[2, 2], &[4, 4], DistSpec::block(vec![2, 1]))
                    .map_err(to_msg)?;
            h.extend(1, 4).map_err(to_msg)?;
            h.extend(0, 1).map_err(to_msg)?;
            // Compare encoded metadata across ranks.
            let mine = h.meta().encode();
            let all = comm.allgather_bytes(mine.clone())?;
            for other in &all {
                assert_eq!(other, &mine, "metadata replica divergence");
            }
            assert_eq!(h.xta.len(), h.meta().payload_bytes());
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn zone_element_regions_partition_valid_elements() {
        let fs = pfs();
        run_spmd(4, |comm| {
            let h: DrxmpHandle<i32> = DrxmpHandle::create(
                comm,
                &fs,
                "zones",
                &[2, 3],
                &[10, 10], // bound not chunk-aligned in dim 1
                DistSpec::block(vec![2, 2]),
            )
            .map_err(to_msg)?;
            if comm.rank() == 0 {
                let mut count = 0u64;
                for r in 0..4 {
                    if let Some(z) = h.zone_element_region(r) {
                        count += z.volume();
                        for idx in z.iter() {
                            assert_eq!(h.owner_of_element(&idx).map_err(to_msg)?, r);
                        }
                    }
                }
                assert_eq!(count, 100, "zones must cover all valid elements");
            }
            h.close().map_err(to_msg)?;
            Ok(())
        })
        .unwrap();
    }
}
